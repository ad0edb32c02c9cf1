package labels

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestBlockStringRoundTrip(t *testing.T) {
	for _, b := range AllBlocks() {
		got, err := ParseBlock(b.String())
		if err != nil || got != b {
			t.Errorf("block %v: round trip got %v, err %v", b, got, err)
		}
	}
}

func TestFieldStringRoundTrip(t *testing.T) {
	for _, f := range AllFields() {
		got, err := ParseField(f.String())
		if err != nil || got != f {
			t.Errorf("field %v: round trip got %v, err %v", f, got, err)
		}
	}
}

func TestParseBlockUnknown(t *testing.T) {
	if _, err := ParseBlock("bogus"); err == nil {
		t.Error("expected error for unknown block")
	}
	if _, err := ParseField("bogus"); err == nil {
		t.Error("expected error for unknown field")
	}
}

func TestStateSpaceSizes(t *testing.T) {
	if len(AllBlocks()) != 6 {
		t.Errorf("paper specifies 6 first-level states, got %d", len(AllBlocks()))
	}
	if len(AllFields()) != 12 {
		t.Errorf("paper specifies 12 second-level states, got %d", len(AllFields()))
	}
}

func TestOutOfRangeString(t *testing.T) {
	if s := Block(99).String(); !strings.Contains(s, "99") {
		t.Errorf("out-of-range block string: %q", s)
	}
	if s := Field(99).String(); !strings.Contains(s, "99") {
		t.Errorf("out-of-range field string: %q", s)
	}
}

func sampleRecord() *LabeledRecord {
	return &LabeledRecord{
		Domain:    "example.com",
		TLD:       "com",
		Registrar: "Example Registrar",
		Text:      "Domain Name: example.com\n\nRegistrant Name: John\nweird @@ line",
		Lines: []LabeledLine{
			{Text: "Domain Name: example.com", Block: Domain, Field: FieldOther},
			{Text: "Registrant Name: John", Block: Registrant, Field: FieldName},
			{Text: "weird @@ line", Block: Null, Field: FieldOther},
		},
	}
}

func TestValidate(t *testing.T) {
	rec := sampleRecord()
	if err := rec.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := *rec
	bad.Domain = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty domain accepted")
	}
	bad2 := sampleRecord()
	bad2.Lines[0].Block = Block(17)
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range block accepted")
	}
}

func TestBlockSeqAndRegistrantLines(t *testing.T) {
	rec := sampleRecord()
	seq := rec.BlockSeq()
	if len(seq) != 3 || seq[1] != Registrant {
		t.Errorf("BlockSeq = %v", seq)
	}
	rl := rec.RegistrantLines()
	if len(rl) != 1 || rl[0] != 1 {
		t.Errorf("RegistrantLines = %v", rl)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	recs := []*LabeledRecord{sampleRecord(), sampleRecord()}
	recs[1].Domain = "other.com"
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	for i, g := range got {
		if g.Domain != recs[i].Domain || g.TLD != recs[i].TLD || g.Registrar != recs[i].Registrar {
			t.Errorf("record %d header mismatch: %+v", i, g)
		}
		if g.Text != recs[i].Text {
			t.Errorf("record %d text mismatch:\n%q\nvs\n%q", i, g.Text, recs[i].Text)
		}
		if len(g.Lines) != len(recs[i].Lines) {
			t.Fatalf("record %d: %d lines, want %d", i, len(g.Lines), len(recs[i].Lines))
		}
		for j := range g.Lines {
			if g.Lines[j].Block != recs[i].Lines[j].Block || g.Lines[j].Field != recs[i].Lines[j].Field {
				t.Errorf("record %d line %d label mismatch", i, j)
			}
		}
	}
}

func TestFormatEscapesDirectives(t *testing.T) {
	rec := sampleRecord()
	rec.Text = "@@record fake\nplain line"
	rec.Lines = []LabeledLine{
		{Text: "@@record fake", Block: Null, Field: FieldOther},
		{Text: "plain line", Block: Null, Field: FieldOther},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, []*LabeledRecord{rec}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Text != rec.Text {
		t.Errorf("escaped text mismatch: %q vs %q", got[0].Text, rec.Text)
	}
}

func TestReadRecordsRejectsMalformed(t *testing.T) {
	cases := []string{
		"garbage\n",
		"@@record domain=x tld=com registrar=r\n@@labels\n@@end\n",             // missing @@text
		"@@record domain=x tld=com registrar=r\n@@text\nline\n",                // unterminated
		"@@record domain=x tld=com registrar=r\n@@text\n@@labels\nbogus\n",     // bad label
		"@@record domain=x tld=com registrar=r\n@@text\nln\n@@labels\n@@end\n", // count mismatch
	}
	for i, c := range cases {
		if _, err := ReadRecords(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func testHasAlnum(s string) bool {
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return true
		}
	}
	return false
}

func TestFormatRoundTripProperty(t *testing.T) {
	f := func(lines []string, blockRaw []uint8) bool {
		var text []string
		var labeled []LabeledLine
		bi := 0
		for _, l := range lines {
			l = strings.Map(func(r rune) rune {
				if r == '\n' || r == '\r' {
					return ' '
				}
				return r
			}, l)
			text = append(text, l)
			if testHasAlnum(l) {
				b := Null
				fld := FieldOther
				if len(blockRaw) > 0 {
					b = Block(int(blockRaw[bi%len(blockRaw)]) % NumBlocks)
					fld = Field(int(blockRaw[bi%len(blockRaw)]) % NumFields)
					bi++
				}
				labeled = append(labeled, LabeledLine{Text: l, Block: b, Field: fld})
			}
		}
		if len(labeled) == 0 {
			return true
		}
		rec := &LabeledRecord{Domain: "p.com", TLD: "com", Registrar: "r", Text: strings.Join(text, "\n"), Lines: labeled}
		var buf bytes.Buffer
		if err := WriteRecords(&buf, []*LabeledRecord{rec}); err != nil {
			return false
		}
		got, err := ReadRecords(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		if got[0].Text != rec.Text || len(got[0].Lines) != len(rec.Lines) {
			return false
		}
		for i := range rec.Lines {
			if got[0].Lines[i].Block != rec.Lines[i].Block || got[0].Lines[i].Field != rec.Lines[i].Field {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// AllFields lists every second-level label in state order.
func AllFields() []Field {
	out := make([]Field, NumFields)
	for i := range out {
		out[i] = Field(i)
	}
	return out
}

// BlockSeq extracts the first-level label sequence.
func (r *LabeledRecord) BlockSeq() []Block {
	out := make([]Block, len(r.Lines))
	for i, ln := range r.Lines {
		out[i] = ln.Block
	}
	return out
}

// RegistrantLines returns the indices of lines labeled Registrant.
func (r *LabeledRecord) RegistrantLines() []int {
	var out []int
	for i, ln := range r.Lines {
		if ln.Block == Registrant {
			out = append(out, i)
		}
	}
	return out
}
