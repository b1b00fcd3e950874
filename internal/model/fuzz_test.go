package model_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/schematree"
)

// FuzzReadJSON holds the native schema JSON format (the "json" format of
// cupid.ParseSchema and cupidd's POST /schemas) to the importers'
// crash-freedom contract: no input panics, and every accepted document
// yields a schema that validates and expands through schematree.Build,
// tolerating only the deliberate node-cap rejection.
func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(`{"name": "PO", "root": {"name": "PO", "children": [{"name": "Lines", "kind": "table", "children": [{"name": "Qty", "kind": "column", "type": "int"}, {"name": "UoM", "kind": "column", "type": "string", "optional": true}]}]}}`))
	f.Add([]byte(`{"name": "DB", "root": {"name": "DB", "children": [{"id": "o", "name": "Orders", "kind": "table", "children": [{"id": "oc", "name": "CustomerID", "kind": "column", "type": "int"}]}, {"id": "c", "name": "Customers", "kind": "table", "children": [{"id": "pk", "name": "CustomerID", "kind": "column", "type": "int", "key": true}]}]}, "refints": [{"name": "Orders-Customers-fk", "sources": ["oc"], "target": "c"}]}`))
	f.Add([]byte(`{"name": "S", "root": {"name": "S", "children": [{"id": "addr", "name": "Address", "kind": "type", "children": [{"name": "Street", "kind": "column", "type": "string"}]}, {"id": "ship", "name": "ShipTo", "kind": "element"}]}, "derivations": [{"element": "ship", "type": "addr"}]}`))
	f.Add([]byte(`{"name": "D", "root": {"name": "D", "description": "documented root", "children": [{"name": "k", "notInstantiated": true}]}}`))
	f.Add([]byte(`{"name": "X", "root": {"name": "X"}, "refints": [{"name": "r", "sources": ["missing"], "target": "X"}]}`))
	f.Add([]byte(`{"name": "Bad", "root": null}`))
	f.Add([]byte(`{"name": "Bad"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("oversized input")
		}
		s, err := model.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted schema fails validation: %v", err)
		}
		if _, err := schematree.Build(s, schematree.Options{MaxNodes: 4096}); err != nil &&
			!strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("accepted schema fails tree expansion: %v", err)
		}
	})
}
