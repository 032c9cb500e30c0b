package stream

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
)

// bruteCount is the trivially correct reference implementation of RC-DVQ
// against a plain object slice.
// bruteCount counts the objects of objs at or after cutoff that q matches
// on lat: each location and the range are snapped as the window snaps
// them.
func bruteCount(lat *geo.Lattice, objs []Object, q *Query, cutoff int64) int {
	n, r := 0, lat.SnapRect(q.Range)
	for i := range objs {
		o := &objs[i]
		if o.Timestamp < cutoff {
			continue
		}
		if (!q.HasRange || r.Contains(lat.Snap(o.Loc))) && (len(q.Keywords) == 0 || o.MatchesAny(q.Keywords)) {
			n++
		}
	}
	return n
}

func randomObject(rng *rand.Rand, id uint64, ts int64, vocab []string) Object {
	nk := rng.Intn(4) // 0..3 keywords
	kws := make([]string, 0, nk)
	for i := 0; i < nk; i++ {
		kws = append(kws, vocab[rng.Intn(len(vocab))])
	}
	return Object{
		ID:        id,
		Loc:       geo.Pt(rng.Float64(), rng.Float64()),
		Keywords:  kws,
		Timestamp: ts,
	}
}

func randomQuery(rng *rand.Rand, ts int64, vocab []string) Query {
	switch rng.Intn(3) {
	case 0:
		return SpatialQ(randRect(rng), ts)
	case 1:
		n := 1 + rng.Intn(3)
		kws := make([]string, n)
		for i := range kws {
			kws[i] = vocab[rng.Intn(len(vocab))]
		}
		return KeywordQ(kws, ts)
	default:
		return HybridQ(randRect(rng), []string{vocab[rng.Intn(len(vocab))]}, ts)
	}
}

func randRect(rng *rand.Rand) geo.Rect {
	cx, cy := rng.Float64(), rng.Float64()
	w, h := rng.Float64()*0.4+0.01, rng.Float64()*0.4+0.01
	return geo.CenteredRect(geo.Pt(cx, cy), w, h)
}

func vocabN(n int) []string {
	v := make([]string, n)
	for i := range v {
		v[i] = fmt.Sprintf("kw%02d", i)
	}
	return v
}

func TestWindowMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocab := vocabN(20)
	const span = 1000
	w := NewWindow(geo.UnitSquare, span, 64)

	var all []Object
	ts := int64(0)
	for i := 0; i < 3000; i++ {
		ts += int64(rng.Intn(3))
		o := randomObject(rng, uint64(i), ts, vocab)
		all = append(all, o)
		w.Insert(o)

		if i%50 == 0 {
			q := randomQuery(rng, ts, vocab)
			got := w.Answer(&q)
			want := bruteCount(w.lat, all, &q, ts-span)
			if got != want {
				t.Fatalf("at insert %d, %v: got %d, want %d", i, q, got, want)
			}
		}
	}
}

// TestWindowOutOfWorldMatchesBruteForce: objects beyond the world are
// stored where they clamp, on its edge columns, and ranges are clamped by
// the same rule. A fifth of the stream lies outside the unit-square world
// — on its max edges, beyond them, beyond the corners — and the spatial
// ranges reach past its edges or miss it altogether. Every count is
// compared with a brute force over the snapped locations and ranges,
// through eviction, including the stretches in which no out-of-world
// object is live.
func TestWindowOutOfWorldMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vocab := vocabN(6)
	const span = 400
	w := NewWindow(geo.UnitSquare, span, 64)
	coord := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return -rng.Float64() * 2
		case 1:
			return 1 + rng.Float64()*2
		case 2:
			return 1 // on the world's max edge
		}
		return rng.Float64()
	}
	var all []Object
	ts := int64(0)
	for i := 0; i < 6000; i++ {
		ts += int64(rng.Intn(2))
		o := randomObject(rng, uint64(i), ts, vocab)
		if (i/1000)%2 == 0 && rng.Intn(5) == 0 { // every other stretch stays inside
			o.Loc = geo.Pt(coord(), coord())
		}
		all = append(all, o)
		w.Insert(o)
		if i%7 != 0 {
			continue
		}
		r := geo.Rect{MinX: coord() - 0.5, MinY: coord() - 0.5}
		r.MaxX, r.MaxY = r.MinX+0.2+rng.Float64()*3, r.MinY+0.2+rng.Float64()*3
		kws := []string{vocab[rng.Intn(len(vocab))]}
		for _, q := range []Query{SpatialQ(r, ts), HybridQ(r, kws, ts), SpatialQ(geo.Rect{MinX: -5, MinY: -5, MaxX: 5, MaxY: 5}, ts)} {
			if got, want := w.Answer(&q), bruteCount(w.lat, all, &q, ts-span); got != want {
				t.Fatalf("at insert %d, %v: got %d, want %d", i, q, got, want)
			}
		}
	}
}

// TestWindowCountsClampedObjectWhereItLies: an object at (5, 0.5) is
// stored where it clamps, on the world's last lattice column at y = 0.5,
// in the cell of (0.95, 0.5). A range that reaches past the world's max x
// edge holds it there; one that stops short of the last column does not.
func TestWindowCountsClampedObjectWhereItLies(t *testing.T) {
	w := NewWindow(geo.UnitSquare, 100, 256) // the last column is [0.9375, 1)
	w.Insert(Object{ID: 1, Loc: geo.Pt(5, 0.5), Keywords: []string{"a"}})
	w.Insert(Object{ID: 2, Loc: geo.Pt(0.95, 0.5), Keywords: []string{"a"}})
	for _, tc := range []struct {
		r    geo.Rect
		want int
	}{
		{geo.Rect{MinX: 0.9, MinY: 0, MaxX: 2, MaxY: 1}, 2},
		{geo.Rect{MinX: 0.9, MinY: 0, MaxX: 0.99, MaxY: 1}, 1},
		{geo.Rect{MinX: 3, MinY: 0.4, MaxX: 4, MaxY: 0.6}, 1}, // wholly outside, over the clamped object
	} {
		for _, q := range []Query{SpatialQ(tc.r, 0), HybridQ(tc.r, []string{"a"}, 0)} {
			if got := w.Count(&q); got != tc.want {
				t.Errorf("%v: counts %d, want %d", q, got, tc.want)
			}
		}
	}
}

// TestWindowCountsMatchLatticeAndFloat: on worlds whose edges are and are
// not lattice lines, exact counts equal a brute force over the snapped
// locations and range, always; and an object in the world more than one
// lattice step from every range edge is counted exactly when the float
// range holds it.
// A third of the objects sit within a few steps, or a few ulps, of some
// range edge.
func TestWindowCountsMatchLatticeAndFloat(t *testing.T) {
	for _, world := range []geo.Rect{
		geo.UnitSquare,
		{MinX: -125, MinY: 24, MaxX: -66, MaxY: 50},
		{MinX: -74.3, MinY: 40.4, MaxX: -73.7, MaxY: 41.0},
		{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1},
	} {
		rng := rand.New(rand.NewSource(46))
		w := NewWindow(world, 1<<40, 256)
		step := w.lat.Unsnap(geo.LPoint{X: 1}).X - w.lat.Unsnap(geo.LPoint{}).X
		ranges := make([]geo.Rect, 8)
		for i := range ranges {
			c := geo.Pt(world.MinX+rng.Float64()*world.Width(), world.MinY+rng.Float64()*world.Height())
			ranges[i] = geo.CenteredRect(c, rng.Float64()*world.Width()/2, rng.Float64()*world.Height()/2)
		}
		near := func(v float64) float64 {
			switch rng.Intn(3) {
			case 0:
				return v + float64(rng.Intn(5)-2)*step
			case 1:
				return math.Nextafter(v, math.Inf(rng.Intn(2)*2-1))
			}
			return v + (rng.Float64()-0.5)*4*step
		}
		var all []Object
		for i := 0; i < 3000; i++ {
			p := geo.Pt(world.MinX+rng.Float64()*world.Width(), world.MinY+rng.Float64()*world.Height())
			if i%3 == 0 {
				r := ranges[rng.Intn(len(ranges))]
				p.X = near([]float64{r.MinX, r.MaxX}[rng.Intn(2)])
				p.Y = near([]float64{r.MinY, r.MaxY}[rng.Intn(2)])
			}
			o := Object{ID: uint64(i), Loc: p}
			all = append(all, o)
			w.Insert(o)
		}
		for _, r := range ranges {
			q := SpatialQ(r, 0)
			if got, want := w.Count(&q), bruteCount(w.lat, all, &q, 0); got != want {
				t.Fatalf("%v, %v: counts %d, lattice brute force %d", world, r, got, want)
			}
			lr := w.lat.SnapRect(r)
			for _, o := range all {
				x, y := o.Loc.X, o.Loc.Y
				if !world.Contains(o.Loc) || math.Abs(x-r.MinX) <= step || math.Abs(x-r.MaxX) <= step || math.Abs(y-r.MinY) <= step || math.Abs(y-r.MaxY) <= step {
					continue
				}
				if lr.Contains(w.lat.Snap(o.Loc)) != r.Contains(o.Loc) {
					t.Fatalf("%v, %v: %v is more than a step (%g) from every edge, yet the lattice and the float range disagree", world, r, o.Loc, step)
				}
			}
		}
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(geo.UnitSquare, 100, 16)
	for i := 0; i < 10; i++ {
		w.Insert(Object{ID: uint64(i), Loc: geo.Pt(0.5, 0.5), Timestamp: int64(i * 10), Keywords: []string{"a"}})
	}
	if w.Size() != 10 {
		t.Fatalf("Size = %d, want 10 (all inside window)", w.Size())
	}
	// Inserting at t=150 evicts everything with ts < 50 (ids 0..4).
	w.Insert(Object{ID: 99, Loc: geo.Pt(0.5, 0.5), Timestamp: 150, Keywords: []string{"a"}})
	if w.Size() != 6 {
		t.Fatalf("Size = %d, want 6", w.Size())
	}
	q := KeywordQ([]string{"a"}, 150)
	if got := w.Answer(&q); got != 6 {
		t.Fatalf("keyword count = %d, want 6", got)
	}
	// Advance far enough to empty the window entirely.
	w.EvictBefore(10_000)
	if w.Size() != 0 {
		t.Fatalf("Size after full evict = %d", w.Size())
	}
	if w.DistinctKeywords() != 0 {
		t.Fatalf("postings not cleaned: %d distinct keywords", w.DistinctKeywords())
	}
}

func TestWindowOutOfOrderPanics(t *testing.T) {
	w := NewWindow(geo.UnitSquare, 100, 16)
	w.Insert(Object{ID: 1, Loc: geo.Pt(0.1, 0.1), Timestamp: 50})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-order insert")
		}
	}()
	w.Insert(Object{ID: 2, Loc: geo.Pt(0.1, 0.1), Timestamp: 40})
}

func TestWindowBadSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-positive span")
		}
	}()
	NewWindow(geo.UnitSquare, 0, 16)
}

func TestWindowDuplicateKeywordsCountOnce(t *testing.T) {
	w := NewWindow(geo.UnitSquare, 1000, 16)
	w.Insert(Object{ID: 1, Loc: geo.Pt(0.5, 0.5), Keywords: []string{"x", "x", "y"}, Timestamp: 0})
	q := KeywordQ([]string{"x"}, 0)
	if got := w.Answer(&q); got != 1 {
		t.Fatalf("duplicate keyword object counted %d times", got)
	}
	// A multi-keyword query hitting both of the object's keywords still
	// counts the object once (distinct-value semantics).
	q2 := KeywordQ([]string{"x", "y"}, 0)
	if got := w.Answer(&q2); got != 1 {
		t.Fatalf("multi-keyword distinct count = %d, want 1", got)
	}
	// Duplicate keywords in the *query* don't double count either.
	q3 := KeywordQ([]string{"x", "x"}, 0)
	if got := w.Answer(&q3); got != 1 {
		t.Fatalf("duplicate query keyword count = %d, want 1", got)
	}
}

func TestWindowHybridBothDirections(t *testing.T) {
	// Force both scan directions of countHybrid: a rare keyword (posting
	// scan wins) and a common keyword with a tiny range (spatial scan wins).
	rng := rand.New(rand.NewSource(3))
	w := NewWindow(geo.UnitSquare, 1_000_000, 256)
	var all []Object
	for i := 0; i < 5000; i++ {
		kw := "common"
		if i%500 == 0 {
			kw = "rare"
		}
		o := Object{ID: uint64(i), Loc: geo.Pt(rng.Float64(), rng.Float64()), Keywords: []string{kw}, Timestamp: int64(i)}
		all = append(all, o)
		w.Insert(o)
	}
	rare := HybridQ(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, []string{"rare"}, 5000)
	if got, want := w.Answer(&rare), bruteCount(w.lat, all, &rare, 0); got != want {
		t.Errorf("rare hybrid: got %d want %d", got, want)
	}
	tiny := HybridQ(geo.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.45, MaxY: 0.45}, []string{"common"}, 5000)
	if got, want := w.Answer(&tiny), bruteCount(w.lat, all, &tiny, 0); got != want {
		t.Errorf("tiny-range hybrid: got %d want %d", got, want)
	}
}

func TestWindowEachOrder(t *testing.T) {
	w := NewWindow(geo.UnitSquare, 1000, 16)
	for i := 0; i < 20; i++ {
		w.Insert(Object{ID: uint64(i), Loc: geo.Pt(0.5, 0.5), Timestamp: int64(i)})
	}
	var ids []uint64
	w.Each(func(o *Object) bool {
		ids = append(ids, o.ID)
		return true
	})
	if len(ids) != 20 {
		t.Fatalf("Each visited %d, want 20", len(ids))
	}
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("Each order broken at %d: %v", i, ids)
		}
	}
	n := 0
	w.Each(func(o *Object) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("Each early stop visited %d", n)
	}
}

func TestWindowTurnoverKeepsAnswers(t *testing.T) {
	// Long run with aggressive eviction: exercises chunk hand-over and ring
	// wrap-around, checking counts stay exact throughout.
	rng := rand.New(rand.NewSource(9))
	vocab := vocabN(8)
	const span = 200
	w := NewWindow(geo.UnitSquare, span, 64)
	var all []Object
	ts := int64(0)
	for i := 0; i < 20000; i++ {
		ts += 1
		o := randomObject(rng, uint64(i), ts, vocab)
		all = append(all, o)
		w.Insert(o)
		if i%997 == 0 {
			q := randomQuery(rng, ts, vocab)
			got := w.Answer(&q)
			want := bruteCount(w.lat, all, &q, ts-span)
			if got != want {
				t.Fatalf("at %d: got %d, want %d for %v", i, got, want, q)
			}
		}
	}
	if w.Size() > span+1 {
		t.Fatalf("window retained %d objects with 1/ms arrival and span %d", w.Size(), span)
	}
	if w.Inserted() != 20000 {
		t.Fatalf("Inserted = %d", w.Inserted())
	}
}

func BenchmarkWindowInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vocab := vocabN(100)
	w := NewWindow(geo.UnitSquare, 100_000, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Insert(randomObject(rng, uint64(i), int64(i), vocab))
	}
}

func BenchmarkWindowAnswerSpatial(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vocab := vocabN(100)
	w := NewWindow(geo.UnitSquare, 1_000_000, 4096)
	for i := 0; i < 100_000; i++ {
		w.Insert(randomObject(rng, uint64(i), int64(i), vocab))
	}
	q := SpatialQ(geo.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.6}, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Answer(&q)
	}
}

// TestCountKeywordUnionEqualsBruteForce: the union over posting
// queues counts what a scan of every live object counts, for 2-6 query
// keywords with repeats and absent words, objects that repeat a keyword,
// with and without a range (both directly and through countHybrid's choice
// of side), while the window evicts and its rings wrap and resize.
func TestCountKeywordUnionEqualsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vocab := vocabN(12)
	const span = 300
	w := NewWindow(geo.UnitSquare, span, 64)
	var all []Object
	ts := int64(0)
	for i := 0; i < 12000; i++ {
		ts++
		o := randomObject(rng, uint64(i), ts, vocab) // draws with replacement: repeats happen
		all = append(all, o)
		w.Insert(o)
		if i%37 != 0 {
			continue
		}
		kws := make([]string, 2+rng.Intn(5))
		for k := range kws {
			switch rng.Intn(5) {
			case 0:
				kws[k] = "absent"
			case 1:
				kws[k] = kws[rng.Intn(k+1)] // repeat an earlier slot (or stay empty)
				if kws[k] == "" {
					kws[k] = vocab[0]
				}
			default:
				kws[k] = vocab[rng.Intn(len(vocab))]
			}
		}
		live := all[len(all)-w.Size():]
		kq := KeywordQ(kws, ts)
		if got, want := w.Count(&kq), bruteCount(w.lat, live, &kq, ts-span); got != want {
			t.Fatalf("at %d, %v: union %d, brute force %d", i, kq, got, want)
		}
		hq := HybridQ(randRect(rng), kws, ts)
		want := bruteCount(w.lat, live, &hq, ts-span)
		if got := w.countKeyword(w.resolve(kws), ptr(w.lat.SnapRect(hq.Range))); got != want {
			t.Fatalf("at %d, %v: ranged union %d, brute force %d", i, hq, got, want)
		}
		if got := w.Count(&hq); got != want {
			t.Fatalf("at %d, %v: hybrid %d, brute force %d", i, hq, got, want)
		}
	}
	if w.inserted-w.evicted != uint64(w.Size()) || w.evicted == 0 {
		t.Fatalf("window did not evict: inserted %d evicted %d", w.inserted, w.evicted)
	}
}

// keywordBenchWindow is a 100k-object window over a 100-word vocabulary
// and a five-keyword query with one repeat.
func keywordBenchWindow() (*Window, Query) {
	rng := rand.New(rand.NewSource(1))
	vocab := vocabN(100)
	w := NewWindow(geo.UnitSquare, 1_000_000, 4096)
	for i := 0; i < 100_000; i++ {
		w.Insert(randomObject(rng, uint64(i), int64(i), vocab))
	}
	return w, KeywordQ([]string{"kw03", "kw17", "kw42", "kw17", "kw99"}, 100_000)
}

func TestCountKeywordMultiDoesNotAllocate(t *testing.T) {
	w, q := keywordBenchWindow()
	hq := HybridQ(geo.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9}, q.Keywords, q.Timestamp)
	for _, q := range []Query{q, hq} {
		q := q
		if n := testing.AllocsPerRun(20, func() { _ = w.Count(&q) }); n != 0 {
			t.Errorf("%v: Count allocates %v times per query", q, n)
		}
	}
}

func BenchmarkWindowCountKeywordMulti(b *testing.B) {
	w, q := keywordBenchWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Count(&q)
	}
}

func ptr[T any](v T) *T { return &v }
