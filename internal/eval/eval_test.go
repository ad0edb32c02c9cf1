package eval

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/labels"
	"repro/internal/tokenize"
)

// fixedParser labels every line with a constant block.
type fixedParser struct{ b labels.Block }

func (f fixedParser) ParseBlocks(text string) ([]tokenize.Line, []labels.Block) {
	lines := tokenize.Tokenize(text, tokenize.Options{})
	out := make([]labels.Block, len(lines))
	for i := range out {
		out[i] = f.b
	}
	return lines, out
}

// oracleParser returns the gold labels (needs the records by text).
type oracleParser struct {
	gold map[string][]labels.Block
}

func (o oracleParser) ParseBlocks(text string) ([]tokenize.Line, []labels.Block) {
	lines := tokenize.Tokenize(text, tokenize.Options{})
	return lines, o.gold[text]
}

func mkRecord(i int, blocks ...labels.Block) *labels.LabeledRecord {
	rec := &labels.LabeledRecord{Domain: fmt.Sprintf("d%d.com", i), TLD: "com", Registrar: "r"}
	for j, b := range blocks {
		line := fmt.Sprintf("field%d: value%d", j, j)
		rec.Text += line + "\n"
		rec.Lines = append(rec.Lines, labels.LabeledLine{Text: line, Block: b, Field: labels.FieldOther})
	}
	rec.Text = rec.Text[:len(rec.Text)-1]
	return rec
}

func TestMetricsRates(t *testing.T) {
	m := Metrics{Lines: 200, LineErrors: 3, Docs: 10, DocErrors: 2}
	if m.LineErrorRate() != 0.015 {
		t.Errorf("line rate %v", m.LineErrorRate())
	}
	if m.DocErrorRate() != 0.2 {
		t.Errorf("doc rate %v", m.DocErrorRate())
	}
	var z Metrics
	if z.LineErrorRate() != 0 || z.DocErrorRate() != 0 {
		t.Error("zero metrics should have zero rates")
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Lines: 10, LineErrors: 1, Docs: 2, DocErrors: 1}
	b := Metrics{Lines: 20, LineErrors: 2, Docs: 3, DocErrors: 0}
	a.Add(b)
	if a.Lines != 30 || a.LineErrors != 3 || a.Docs != 5 || a.DocErrors != 1 {
		t.Errorf("Add: %+v", a)
	}
}

func TestEvalBlocksPerfectAndWorst(t *testing.T) {
	recs := []*labels.LabeledRecord{
		mkRecord(0, labels.Domain, labels.Domain),
		mkRecord(1, labels.Domain, labels.Registrar),
	}
	// All-domain parser: record 0 perfect, record 1 has one error.
	m, err := EvalBlocks(fixedParser{labels.Domain}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lines != 4 || m.LineErrors != 1 || m.Docs != 2 || m.DocErrors != 1 {
		t.Errorf("metrics %+v", m)
	}
	// All-null parser errs everywhere.
	m, err = EvalBlocks(fixedParser{labels.Null}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if m.LineErrors != 4 || m.DocErrors != 2 {
		t.Errorf("metrics %+v", m)
	}
}

func TestEvalFieldsCountsOnlyRegistrantLines(t *testing.T) {
	rec := &labels.LabeledRecord{Domain: "x.com", TLD: "com", Registrar: "r",
		Text: "a: 1\nb: 2\nc: 3",
		Lines: []labels.LabeledLine{
			{Text: "a: 1", Block: labels.Domain, Field: labels.FieldOther},
			{Text: "b: 2", Block: labels.Registrant, Field: labels.FieldName},
			{Text: "c: 3", Block: labels.Registrant, Field: labels.FieldEmail},
		}}
	p := fieldsParser{
		blocks: []labels.Block{labels.Domain, labels.Registrant, labels.Registrant},
		fields: []labels.Field{labels.FieldOther, labels.FieldName, labels.FieldPhone},
	}
	m, err := EvalFields(p, []*labels.LabeledRecord{rec})
	if err != nil {
		t.Fatal(err)
	}
	if m.Lines != 2 {
		t.Errorf("counted %d registrant lines, want 2", m.Lines)
	}
	if m.LineErrors != 1 {
		t.Errorf("errors %d, want 1 (phone != email)", m.LineErrors)
	}
}

type fieldsParser struct {
	blocks []labels.Block
	fields []labels.Field
}

func (p fieldsParser) ParseBlocks(text string) ([]tokenize.Line, []labels.Block) {
	return tokenize.Tokenize(text, tokenize.Options{}), p.blocks
}

func (p fieldsParser) ParseFields(lines []tokenize.Line, blocks []labels.Block) []labels.Field {
	return p.fields
}

func TestCrossValidateOracle(t *testing.T) {
	var recs []*labels.LabeledRecord
	gold := make(map[string][]labels.Block)
	for i := 0; i < 40; i++ {
		blocks := []labels.Block{labels.Domain, labels.Registrant, labels.Date}
		rec := mkRecord(i, blocks...)
		recs = append(recs, rec)
		gold[rec.Text] = blocks
	}
	factory := func(train []*labels.LabeledRecord) (BlockParser, error) {
		return oracleParser{gold}, nil
	}
	points, err := CrossValidate(recs, []int{5, 10}, 4, 1, factory)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, pt := range points {
		if pt.LineMean != 0 || pt.DocMean != 0 {
			t.Errorf("oracle parser has nonzero error: %+v", pt)
		}
		if pt.Folds != 4 {
			t.Errorf("folds = %d", pt.Folds)
		}
	}
}

func TestCrossValidateConstantParser(t *testing.T) {
	var recs []*labels.LabeledRecord
	for i := 0; i < 30; i++ {
		// Two of three lines are Domain, so the all-domain parser has a
		// deterministic 1/3 line error rate.
		recs = append(recs, mkRecord(i, labels.Domain, labels.Domain, labels.Null))
	}
	factory := func(train []*labels.LabeledRecord) (BlockParser, error) {
		return fixedParser{labels.Domain}, nil
	}
	points, err := CrossValidate(recs, []int{5}, 3, 2, factory)
	if err != nil {
		t.Fatal(err)
	}
	pt := points[0]
	if pt.LineMean < 0.32 || pt.LineMean > 0.34 {
		t.Errorf("line mean %.4f, want 1/3", pt.LineMean)
	}
	if pt.LineStd != 0 {
		t.Errorf("deterministic error should have zero std, got %v", pt.LineStd)
	}
	if pt.DocMean != 1 {
		t.Errorf("every doc has an error; doc mean %v", pt.DocMean)
	}
}

func TestCrossValidateRejectsBadFolds(t *testing.T) {
	if _, err := CrossValidate(nil, []int{1}, 1, 1, nil); err == nil {
		t.Fatal("expected error for 1 fold")
	}
}

func TestEvalBlocksDetectsMisalignment(t *testing.T) {
	rec := mkRecord(0, labels.Domain, labels.Domain)
	bad := fieldsParser{blocks: []labels.Block{labels.Domain}} // wrong length
	if _, err := EvalBlocks(bad, []*labels.LabeledRecord{rec}); err == nil {
		t.Fatal("expected alignment error")
	}
}

func TestConfusionMatrix(t *testing.T) {
	recs := []*labels.LabeledRecord{
		mkRecord(0, labels.Domain, labels.Registrant),
		mkRecord(1, labels.Domain, labels.Domain),
	}
	c, err := ConfusionBlocks(fixedParser{labels.Domain}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() != 4 {
		t.Errorf("total %d", c.Total())
	}
	if c.Counts[labels.Domain][labels.Domain] != 3 {
		t.Errorf("domain diagonal %d", c.Counts[labels.Domain][labels.Domain])
	}
	if c.Counts[labels.Registrant][labels.Domain] != 1 {
		t.Errorf("registrant->domain %d", c.Counts[labels.Registrant][labels.Domain])
	}
	if acc := c.Accuracy(); acc != 0.75 {
		t.Errorf("accuracy %v", acc)
	}
	p, r := c.PrecisionRecall(labels.Domain)
	if p != 0.75 || r != 1 {
		t.Errorf("domain precision %v recall %v", p, r)
	}
	p, r = c.PrecisionRecall(labels.Registrant)
	if p != 1 || r != 0 {
		t.Errorf("registrant precision %v recall %v (no predictions -> precision 1)", p, r)
	}
	out := c.Render()
	if !strings.Contains(out, "overall accuracy: 0.7500") {
		t.Errorf("render: %s", out)
	}
}

func TestConfusionEmpty(t *testing.T) {
	c, err := ConfusionBlocks(fixedParser{labels.Null}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() != 0 || c.Accuracy() != 0 {
		t.Errorf("empty confusion: %+v", c)
	}
}

// Add merges another Metrics into m.
func (m *Metrics) Add(o Metrics) {
	m.Lines += o.Lines
	m.LineErrors += o.LineErrors
	m.Docs += o.Docs
	m.DocErrors += o.DocErrors
}
