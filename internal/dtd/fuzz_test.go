package dtd

import (
	"strings"
	"testing"

	"repro/internal/schematree"
)

// FuzzParseDTD asserts the importer's crash-freedom contract: no input
// panics, and every accepted DTD yields a schema that validates and
// expands through schematree.Build (the Prepare pipeline's per-schema
// phase), tolerating only the deliberate node-cap rejection.
func FuzzParseDTD(f *testing.F) {
	f.Add(`<!ELEMENT PO (POLines, BillTo?)><!ELEMENT POLines (Item*)><!ELEMENT Item EMPTY><!ATTLIST Item Qty CDATA #REQUIRED UoM CDATA #IMPLIED><!ELEMENT BillTo (#PCDATA)>`)
	f.Add(`<!ELEMENT Order (Customer)><!ELEMENT Customer EMPTY><!ATTLIST Order id ID #REQUIRED cust IDREF #IMPLIED><!ATTLIST Customer cid ID #REQUIRED>`)
	f.Add(`<!ELEMENT Node (Node?)>`)
	f.Add(`<!ELEMENT A (B | C)+><!ELEMENT B ANY><!ELEMENT C (#PCDATA | B)*>`)
	f.Add(`<!-- comment --><!ELEMENT A EMPTY><!ATTLIST A kind (x | y) "x">`)
	f.Add(`<!ENTITY % t "CDATA"><!NOTATION n SYSTEM 'x'><!ELEMENT A EMPTY>`)
	f.Add(`<!ELEMENT A ((((B))))>`)
	f.Add(`<!ATTLIST A x CDATA`)
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 64<<10 {
			t.Skip("oversized input")
		}
		s, err := Parse("fuzz", doc)
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
