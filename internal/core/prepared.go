package core

import (
	"fmt"
	"sync"

	"repro/internal/instance"
	"repro/internal/linguistic"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/schematree"
	"repro/internal/structural"
)

// Prepared is the reusable per-schema matching artifact: a validated
// schema together with its expanded schema tree and linguistic analysis.
// Preparing a schema once and matching it many times turns the per-schema
// phases of the pipeline (validation, schematree.Build, linguistic
// Analyze) into a one-time cost — the repository/service workload the
// paper envisions, where one incoming schema is compared against many
// stored ones.
//
// A Prepared is immutable after construction and safe for concurrent use
// by any number of MatchPrepared calls. It is bound to the Matcher that
// built it (the tree depends on the matcher's tree options, the analysis
// on its thesaurus and linguistic parameters); passing it to a different
// Matcher is an error. The caller must not mutate the underlying schema
// after Prepare — the artifact holds the analysis of the schema as it was.
type Prepared struct {
	owner  *Matcher
	schema *model.Schema
	tree   *schematree.Tree
	info   *linguistic.SchemaInfo

	// fp caches the content hash. Lazy (once, concurrency-safe): plain
	// Match goes through Prepare too and never reads it, so the per-call
	// fast path should not pay two schema hashes.
	fpOnce sync.Once
	fp     string

	// pathToks caches the interned token sets of every node's full
	// context path. Only ModeLinguisticOnly consumes it, so it is computed
	// lazily (once, concurrency-safe) instead of on every Prepare.
	pathOnce sync.Once
	pathToks *linguistic.TokenSets

	// sig caches the pruning signature. Lazy like fp: only repository
	// candidate pruning (registry.MatchTop) reads it, so plain Match never
	// pays the token-bag sweep.
	sigOnce sync.Once
	sig     model.Signature

	// profiles holds the per-leaf instance profiles when the schema was
	// prepared with sampled instance data (PrepareWithInstances); nil
	// otherwise. profileHash is the stable content hash of the resolved
	// profiles, mixed into Fingerprint so instance data participates in
	// repository entry identity. The retrieval Signature is deliberately
	// NOT affected: pruning, the inverted index, the planner and family
	// routing all see the same tokens with or without instances.
	profiles    map[*model.Element]*instance.Profile
	profileHash string
}

// Schema returns the underlying schema graph.
func (p *Prepared) Schema() *model.Schema { return p.schema }

// Tree returns the expanded schema tree.
func (p *Prepared) Tree() *schematree.Tree { return p.tree }

// Info returns the linguistic analysis (token sets, categories).
func (p *Prepared) Info() *linguistic.SchemaInfo { return p.info }

// Fingerprint returns the content hash of the artifact, the identity the
// registry keys entries by: model.Fingerprint of the schema, suffixed with
// the instance-profile hash when the artifact carries sampled instance
// data ("<schema-hash>+<profile-hash>"), so the same schema registered
// with different samples replaces the entry while identical samples stay
// idempotent. Computed on first use.
func (p *Prepared) Fingerprint() string {
	p.fpOnce.Do(func() {
		p.fp = model.Fingerprint(p.schema)
		if p.profileHash != "" {
			p.fp += "+" + p.profileHash
		}
	})
	return p.fp
}

// Signature returns the schema's retrieval signature (model.Signature):
// element count, expanded-tree leaf count, and the weighted normalized
// token bag of the cached linguistic analysis. The repository's candidate
// pruning stage (registry.MatchTop) ranks entries by signature affinity
// before running the full tree match on the survivors, and the inverted
// index (internal/index) posts each token with its stable weight.
// Computed on first use, concurrency-safe, immutable afterwards.
func (p *Prepared) Signature() model.Signature {
	p.sigOnce.Do(func() {
		toks, weights := p.owner.ling.WeightedSignatureTokens(p.info)
		p.sig = model.NewWeightedSignature(p.schema.Len(), p.tree.NumLeaves(), toks, weights)
	})
	return p.sig
}

// Prepare validates the schema and builds the reusable matching artifact:
// the expanded schema tree (under the matcher's tree options) and the
// linguistic analysis (under its thesaurus and parameters). Prepare is
// safe for concurrent use, like every other method of Matcher.
func (m *Matcher) Prepare(s *model.Schema) (*Prepared, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: schema %q: %w", s.Name, err)
	}
	t, err := schematree.Build(s, m.cfg.Tree)
	if err != nil {
		return nil, fmt.Errorf("core: expanding %q: %w", s.Name, err)
	}
	return &Prepared{
		owner:  m,
		schema: s,
		tree:   t,
		info:   m.ling.Analyze(s),
	}, nil
}

// pathTokens returns the normalized token set of every node's context
// path, interned, computed once per Prepared (ModeLinguisticOnly's
// per-tree cost).
func (p *Prepared) pathTokens() *linguistic.TokenSets {
	p.pathOnce.Do(func() {
		toks := make([]linguistic.TokenSet, p.tree.Len())
		par.For(p.tree.Len(), func(i int) {
			toks[i] = linguistic.Normalize(p.tree.Nodes[i].Path(), p.owner.ling.Th)
		})
		p.pathToks = p.owner.ling.Intern(toks)
	})
	return p.pathToks
}

// MatchPrepared computes a mapping between two prepared schemas, skipping
// the per-schema validation/expansion/analysis phases. The result is
// bit-identical to Match on the same schemas (Match is implemented on top
// of Prepare + MatchPrepared; the determinism tests assert the
// equivalence). Both artifacts must have been built by this Matcher.
func (m *Matcher) MatchPrepared(src, dst *Prepared) (*Result, error) {
	if src == nil || dst == nil {
		return nil, fmt.Errorf("core: nil prepared schema")
	}
	if src.owner != m || dst.owner != m {
		return nil, fmt.Errorf("core: prepared schema belongs to a different matcher (prepare and match with the same Matcher)")
	}
	res := &Result{
		SourceTree: src.tree,
		TargetTree: dst.tree,
		SourceInfo: src.info,
		TargetInfo: dst.info,
	}
	if m.cfg.Mode == ModeLinguisticOnly {
		return m.matchLinguisticOnly(res, src.pathTokens(), dst.pathTokens())
	}

	// Element-level lsim lifted to tree nodes (context copies inherit the
	// similarity of their element — linguistic matching is unaffected by
	// the graph-to-tree expansion, §8.2).
	elemLSim := m.ling.LSim(res.SourceInfo, res.TargetInfo)
	m.ling.BlendDescriptions(res.SourceInfo, res.TargetInfo, elemLSim, m.cfg.DescriptionWeight)
	if m.cfg.Mode == ModeStructuralOnly {
		elemLSim.Zero()
	}
	if err := m.applyInitialMapping(src.schema, dst.schema, elemLSim); err != nil {
		return nil, err
	}
	res.LSim = liftToNodes(src.tree, dst.tree, elemLSim)

	// Instance-aware leaf initialization: when BOTH artifacts carry value
	// profiles, leaf pairs profiled on both sides blend observed-value
	// compatibility into the declared-type table lookup (tie-breaking
	// evidence, internal/instance). The hook rides on a per-call copy of
	// the structural parameters; with either side profile-free the copy is
	// hook-less and the pipeline is bit-identical to the profile-free path.
	sp := m.cfg.Structural
	if len(src.profiles) > 0 && len(dst.profiles) > 0 {
		sp.LeafCompat = leafCompatFn(src.profiles, dst.profiles, sp.Compat)
	}
	res.Struct = structural.TreeMatch(src.tree, dst.tree, res.LSim, sp)
	if m.cfg.Mapping.NonLeaves {
		// Second post-order traversal (§7): leaf similarity updates during
		// TreeMatch may have changed non-leaf structural similarity.
		structural.SecondPass(res.Struct, src.tree, dst.tree, res.LSim, sp)
	}
	res.WSim = res.Struct.WSim
	res.Mapping = mapping.Generate(src.tree, dst.tree, res.Struct, res.LSim, m.cfg.Mapping)
	return res, nil
}
