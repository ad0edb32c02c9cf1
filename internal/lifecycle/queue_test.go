package lifecycle

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/store"
)

func TestQueueDedupeAndBoundedEviction(t *testing.T) {
	q := newALQueue(0.5, 3)
	if !q.add("a.com", "text a", 0.40) || !q.add("b.com", "text b", 0.30) {
		t.Fatal("adds below capacity rejected")
	}
	// Duplicate text: keep the lowest confidence seen, no new slot.
	if !q.add("a.com", "text a", 0.10) {
		t.Fatal("duplicate add rejected")
	}
	if q.len() != 2 {
		t.Fatalf("len = %d after dedupe, want 2", q.len())
	}
	if !q.add("c.com", "text c", 0.45) {
		t.Fatal("third add rejected")
	}
	// Full: a more uncertain newcomer evicts the least uncertain
	// entry (text c at 0.45).
	if !q.add("d.com", "text d", 0.05) {
		t.Fatal("more-uncertain newcomer dropped from full queue")
	}
	// Full: a less uncertain newcomer is the one dropped.
	if q.add("e.com", "text e", 0.49) {
		t.Fatal("least-uncertain newcomer admitted to full queue")
	}
	entries := q.drain()
	if len(entries) != 3 {
		t.Fatalf("drained %d entries, want 3", len(entries))
	}
	byText := map[string]float64{}
	for _, e := range entries {
		byText[e.text] = e.conf
	}
	if byText["text a"] != 0.10 {
		t.Fatalf("dedupe kept conf %v, want the lower 0.10", byText["text a"])
	}
	if _, ok := byText["text c"]; ok {
		t.Fatal("least uncertain entry survived eviction")
	}
	if _, ok := byText["text d"]; !ok {
		t.Fatal("most uncertain newcomer missing")
	}
	if q.len() != 0 {
		t.Fatal("drain left entries behind")
	}
}

func TestFlushQueuePersistsMostUncertainFirst(t *testing.T) {
	recs, weak, _ := fixtures(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	m := New(weak, Options{Queue: st})
	// One well-formed record (the model knows this template) and one
	// the model has never seen anything like.
	clean := recs[0].Text
	garbled := "zq qz zzz\nqqq xyzzy plugh\nwibble wobble\n"
	m.queue.add("clean.com", clean, 0.4)
	m.queue.add("", garbled, 0.3)

	n, err := m.FlushQueue()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("flushed %d records, want 2", n)
	}

	// Expected order: the live model's own uncertainty ranking over
	// the drained texts (insertion order).
	order := weak.RankByUncertainty([]string{clean, garbled})
	wantTexts := []string{clean, garbled}

	it := st.Iter()
	defer it.Close()
	var got []*store.Record
	for it.Next() {
		rec := *it.Record()
		got = append(got, &rec)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(got) != 2 {
		t.Fatalf("store holds %d records, want 2", len(got))
	}
	for i, rec := range got {
		if rec.Text != wantTexts[order[i]] {
			t.Fatalf("record %d is not uncertainty-rank %d", i, i)
		}
		if rec.Facts.ModelVersion != "m1" {
			t.Fatalf("record %d stamped %q, want m1", i, rec.Facts.ModelVersion)
		}
	}
	// The record with no extracted domain got a deterministic
	// text-hash key, so the store can still dedupe re-queues.
	for _, rec := range got {
		if rec.Text == garbled && !strings.HasPrefix(rec.Domain, "unlabeled-") {
			t.Fatalf("domainless record keyed %q", rec.Domain)
		}
		if rec.Text == clean && rec.Domain != "clean.com" {
			t.Fatalf("clean record keyed %q", rec.Domain)
		}
	}

	// Empty queue: flush is a no-op; so is a manager without a queue
	// store.
	if n, err := m.FlushQueue(); err != nil || n != 0 {
		t.Fatalf("empty flush = (%d, %v), want (0, nil)", n, err)
	}
	m2 := New(weak, Options{})
	m2.queue.add("x.com", "some text", 0.1)
	if n, err := m2.FlushQueue(); err != nil || n != 0 {
		t.Fatalf("flush without store = (%d, %v), want (0, nil)", n, err)
	}
	if got := m.Metrics().Counter("lifecycle.queue.persisted").Value(); got != 2 {
		t.Fatalf("queue.persisted = %d, want 2", got)
	}
}

// TestNoQueueStoreQueuesNothing: without Options.Queue nothing would
// ever flush the labeling queue, so low-confidence parses must not
// collect in it.
func TestNoQueueStoreQueuesNothing(t *testing.T) {
	_, weak, _ := fixtures(t)
	m := New(weak, Options{SampleEvery: 1, ConfidenceFloor: 0.5})
	rec := &core.ParsedRecord{Registrar: "Example Registrar", Blocks: []labels.Block{labels.Null}}
	for i := 0; i < 20; i++ {
		m.observe(m.Current(), rec, fmt.Sprintf("uncertain text %d", i), 0.1)
	}
	if got := m.Metrics().Snapshot()["lifecycle.queue.pending"]; got != 0.0 {
		t.Fatalf("lifecycle.queue.pending = %v, want 0", got)
	}
	if n, err := m.FlushQueue(); n != 0 || err != nil {
		t.Fatalf("FlushQueue = %d, %v; want 0, nil", n, err)
	}
}
