package tokenize

import (
	"testing"
	"testing/quick"
)

func linesFor(obs ...string) [][]Line {
	return [][]Line{{{Obs: obs}}}
}

func TestBuildDictionaryTrimsInfrequent(t *testing.T) {
	recs := linesFor("common", "common", "common", "rare")
	d := BuildDictionary(recs, 2)
	if _, ok := d.ID("common"); !ok {
		t.Error("frequent observation missing")
	}
	if _, ok := d.ID("rare"); ok {
		t.Error("rare observation should be trimmed")
	}
}

func TestBuildDictionaryKeepsClosedClass(t *testing.T) {
	recs := linesFor(MarkNL, MarkSEP, "CLS:5DIGIT", "rareword")
	d := BuildDictionary(recs, 5)
	for _, obs := range []string{MarkNL, MarkSEP, "CLS:5DIGIT"} {
		if _, ok := d.ID(obs); !ok {
			t.Errorf("closed-class observation %q trimmed", obs)
		}
	}
	if _, ok := d.ID("rareword"); ok {
		t.Error("rare open-class word should be trimmed")
	}
}

func TestDictionaryDeterministicIDs(t *testing.T) {
	recs := linesFor("b", "a", "c", "a")
	d1 := BuildDictionary(recs, 1)
	d2 := BuildDictionary(recs, 1)
	if d1.Len() != d2.Len() {
		t.Fatal("lengths differ")
	}
	for i := 0; i < d1.Len(); i++ {
		if d1.Name(i) != d2.Name(i) {
			t.Fatalf("id %d: %q vs %q", i, d1.Name(i), d2.Name(i))
		}
	}
	// Sorted assignment.
	for i := 1; i < d1.Len(); i++ {
		if d1.Name(i-1) >= d1.Name(i) {
			t.Fatalf("names not sorted: %q >= %q", d1.Name(i-1), d1.Name(i))
		}
	}
}

func TestDictionaryCounts(t *testing.T) {
	recs := linesFor("x", "x", "y")
	d := BuildDictionary(recs, 1)
	id, _ := d.ID("x")
	if d.Count(id) != 2 {
		t.Errorf("count(x) = %d, want 2", d.Count(id))
	}
}

func TestMapLineDropsUnknown(t *testing.T) {
	d := BuildDictionary(linesFor("known"), 1)
	ids := d.MapLine(Line{Obs: []string{"known", "unknown"}})
	if len(ids) != 1 {
		t.Fatalf("got %d ids, want 1", len(ids))
	}
	if d.Name(ids[0]) != "known" {
		t.Errorf("mapped to %q", d.Name(ids[0]))
	}
}

// entries lists a dictionary's names and counts in id order, the form a
// serialized model stores.
func entries(d *Dictionary) ([]string, []int) {
	names := make([]string, d.Len())
	counts := make([]int, d.Len())
	for i := range names {
		names[i], counts[i] = d.Name(i), d.Count(i)
	}
	return names, counts
}

func TestDictionaryRoundTrip(t *testing.T) {
	recs := linesFor("alpha", "beta", "beta", MarkNL, "gamma with spaces", "tab\tand\nnewline", "")
	d := BuildDictionary(recs, 1)
	d2, err := DictionaryFrom(entries(d))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("length after round trip: %d vs %d", d2.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if d.Name(i) != d2.Name(i) || d.Count(i) != d2.Count(i) {
			t.Fatalf("entry %d differs: (%q,%d) vs (%q,%d)",
				i, d.Name(i), d.Count(i), d2.Name(i), d2.Count(i))
		}
		if id, ok := d2.ID(d.Name(i)); !ok || id != i {
			t.Fatalf("ID(%q) = %d, %v; want %d", d.Name(i), id, ok, i)
		}
	}
}

func TestDictionaryRoundTripProperty(t *testing.T) {
	f := func(words []string) bool {
		d := BuildDictionary(linesFor(words...), 1)
		d2, err := DictionaryFrom(entries(d))
		if err != nil || d2.Len() != d.Len() {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			if id, ok := d2.ID(d.Name(i)); d.Name(i) != d2.Name(i) || !ok || id != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDictionaryFromRejectsMalformed(t *testing.T) {
	if _, err := DictionaryFrom([]string{"a", "b"}, []int{1}); err == nil {
		t.Error("names/counts length mismatch should be rejected")
	}
	if _, err := DictionaryFrom([]string{"dup", "x", "dup"}, []int{1, 2, 3}); err == nil {
		t.Error("duplicate entries should be rejected")
	}
	if d, err := DictionaryFrom(nil, nil); err != nil || d.Len() != 0 {
		t.Errorf("empty dictionary: %v, len %d", err, d.Len())
	}
}

func TestBuildDictionaryMinCountFloor(t *testing.T) {
	d := BuildDictionary(linesFor("x"), 0) // treated as 1
	if _, ok := d.ID("x"); !ok {
		t.Error("minCount 0 should behave as 1")
	}
}
