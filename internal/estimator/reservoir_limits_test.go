package estimator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// pinnedLimitDigests are SHA-256 digests of every estimate and image that
// limitScript produces, per case and estimator, recorded when every field
// of the store was 32 or 64 bits wide and recorded again, the reference
// scans agreeing throughout, when the reservoirs' generator became a PCG.
// They pin that a store on either side of a narrow limit — and so with or
// without each high column — shows exactly what the wide store showed.
var pinnedLimitDigests = map[string]string{
	"capacity 65535/RSL":    "0a711afe6dae13d9aef7ad1dc1d78c5334eab9f3fca3eaa60f713bb8dc9a2676",
	"capacity 65535/RSH":    "a18c52525dcf8baefecd2d15ed0fc4fc62b61a4833562f813b59f449ce443a23",
	"capacity 65536/RSL":    "c350ab50a659a68a92fe69d2f985675c4f4cbdcbafc8647aa57e65eb18a6c6df",
	"capacity 65536/RSH":    "fc8489b9b20c95e1e4ee734f42b72215f53a8d9f3182062557749b3ea35f172b",
	"capacity 65537/RSL":    "a1209a6e90e637c5513a906a2c0be689eb4a7ff40cc94b9d7d57e9dba13db13f",
	"capacity 65537/RSH":    "3e29fe11b95a454c532d3d27997879e784435d464537bb14c1d7871e83b31303",
	"2^53 ms jump/RSL":      "e43b8b45a4971995fe4a7e5768f591d8d0faf0077debaad40d0236f3ddaedb85",
	"2^53 ms jump/RSH":      "3376611ce19de29ec0cda87748c54fef257ad940e8a167fc3dedc7451a3b25b6",
	"70 000-word vocab/RSL": "18bb001475d5e53074c542551c3bfa28f7ba116aaab5069305ad5f09878c5973",
	"70 000-word vocab/RSH": "e1006568ab6329bc20e4f7fc2be7ef383c54348580b3f4e2c6717fcd8c7d7f18",
}

// limitCase is a stream that takes a store across, or up to, a narrow
// limit, and the high columns the store must then hold.
type limitCase struct {
	name string
	p    Params
	n    int                                       // objects fed
	obj  func(rng *rand.Rand, i int) stream.Object // the i-th object, timestamp included
	// rounds are the timestamps queries are asked at once every object is
	// fed; a query past the span purges.
	rounds []int64
	// high is, per estimator, the high columns held after the feed.
	high [2]string
}

// cellCorner is the lower corner of one cell of the 128×128 grid an RSH of
// about 16 384 cells lays over the unit square: objects inside it share a
// bucket.
var cellCorner = geo.Pt(12.0/128, 40.0/128)

// inCell returns a point of the cell at cellCorner.
func inCell(rng *rand.Rand) geo.Point {
	return geo.Pt(cellCorner.X+0.98*rng.Float64()/128, cellCorner.Y+0.98*rng.Float64()/128)
}

// capacityCase fills a store of capacity c, every sample in one RSH bucket
// and on the posting list of "all", and churns an eighth as much again:
// the longest list and bucket, and so the largest position and slot, reach
// c.
func capacityCase(c int, high [2]string) limitCase {
	n := c + c/8
	return limitCase{
		name: fmt.Sprintf("capacity %d", c),
		p:    Params{World: geo.UnitSquare, Span: int64(n), Seed: 11, Scale: float64(c) / defaultReservoirCapacity},
		n:    n,
		obj: func(rng *rand.Rand, i int) stream.Object {
			kws := []string{"all", fmt.Sprintf("kw%d", rng.Intn(10))}
			if i%10 == 0 {
				kws = append(kws, "kw1", "kw2", "kw1", "x")
			}
			return stream.Object{ID: uint64(i), Loc: inCell(rng), Keywords: kws, Timestamp: int64(i)}
		},
		rounds: []int64{int64(n - 1), int64(n + n/3)},
		high:   high,
	}
}

// limitCases are the narrow limits' two sides. A keyword reference holds
// its position plus one, so capacity 65 535 is the last whose positions
// fit 16 bits, and a list's length fits them to 65 535 too; a slot number
// or bucket link does up to 65 535, so capacity 65 536 is the last whose
// slots fit. Timestamps fit while they lie within 2³¹ ms of the first
// sample's, and IDs while fewer than 65 535 words are live.
var limitCases = []limitCase{
	capacityCase(65535, [2]string{"", ""}),
	capacityCase(65536, [2]string{"kw runs", "kw runs"}),
	capacityCase(65537, [2]string{"kw slots runs", "kw slots runs links"}),
	{
		name: "2^53 ms jump",
		p:    Params{World: geo.UnitSquare, Span: 1 << 55, Seed: 12, Scale: 0.05},
		n:    6000,
		obj: func(rng *rand.Rand, i int) stream.Object {
			ts := int64(i)
			if i >= 3000 {
				ts += 1 << 53
			}
			return stream.Object{ID: uint64(i), Loc: geo.Pt(rng.Float64(), rng.Float64()),
				Keywords: []string{fmt.Sprintf("kw%d", rng.Intn(10))}, Timestamp: ts}
		},
		// Both epochs live; the first purged; every sample purged.
		rounds: []int64{1<<53 + 5999, 1<<55 + 1<<52, 1 << 57},
		high:   [2]string{"ts", "ts"},
	},
	{
		name: "70 000-word vocab",
		p:    Params{World: geo.UnitSquare, Span: 60_000, Seed: 13, Scale: 2},
		n:    60_000,
		obj: func(rng *rand.Rand, i int) stream.Object {
			kws := []string{fmt.Sprintf("u%d", i), fmt.Sprintf("v%d", i), fmt.Sprintf("c%d", rng.Intn(5))}
			if i%7 == 0 {
				kws = append(kws, fmt.Sprintf("w%d", i), "c1")
			}
			return stream.Object{ID: uint64(i), Loc: geo.Pt(rng.Float64(), rng.Float64()), Keywords: kws, Timestamp: int64(i)}
		},
		rounds: []int64{59_999, 90_000},
		high:   [2]string{"kw", "kw"},
	},
}

// limitQueries returns a mix of queries at ts around the cell the capacity
// cases fill: spatial, keyword and hybrid, on words every sample, some, one
// and none carry.
func limitQueries(rng *rand.Rand, ts int64) []stream.Query {
	var qs []stream.Query
	words := [][]string{{"all"}, {"kw3"}, {"kw1", "kw2"}, {"c2"}, {"c1", "u59990", "v1"}, {"nope"}}
	for i := 0; i < 16; i++ {
		c := cellCorner
		if i%3 == 0 {
			c = geo.Pt(rng.Float64(), rng.Float64())
		}
		side := []float64{0.2 / 128, 0.6 / 128, 0.3}[i%3]
		r := geo.CenteredRect(geo.Pt(c.X+rng.Float64()/128, c.Y+rng.Float64()/128), side, side)
		kws := words[rng.Intn(len(words))]
		switch i % 4 {
		case 0:
			qs = append(qs, stream.SpatialQ(r, ts))
		case 1:
			qs = append(qs, stream.KeywordQ(kws, ts))
		default:
			qs = append(qs, stream.HybridQ(r, kws, ts))
		}
	}
	return qs
}

// limitScript drives one reservoir pair through c: feeds it, asking queries
// halfway and at the end, checks the high columns the store then holds,
// asks the queries of every round, each round followed by a Save→Load, and
// returns the digest of every estimate and image, which must be the
// reference's throughout.
func limitScript(t *testing.T, c limitCase, pair *reservoirPair, est int) string {
	h := sha256.New()
	rng := rand.New(rand.NewSource(c.p.Seed))
	qrng := rand.New(rand.NewSource(c.p.Seed + 1))
	answer := func(stage string, ts int64) {
		for _, q := range limitQueries(qrng, ts) {
			got, want := pair.real.Estimate(&q), pair.ref.Estimate(&q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s, %s: %v estimates %v, reference %v", c.name, pair.name, stage, q, got, want)
			}
			binary.Write(h, binary.LittleEndian, math.Float64bits(got))
		}
		pair.check(t, stage)
	}
	var last int64
	for i := 0; i < c.n; i++ {
		o := c.obj(rng, i)
		pair.real.Insert(&o)
		pair.ref.Insert(&o)
		if last = o.Timestamp; (i+1)%(c.n/2) == 0 {
			answer(fmt.Sprintf("after %d objects", i+1), last)
		}
	}
	if got := highColumns(pair.real); got != c.high[est] {
		t.Errorf("%s %s: high columns %q, want %q", c.name, pair.name, got, c.high[est])
	}
	for i, ts := range c.rounds {
		stage := fmt.Sprintf("round %d", i)
		answer(stage, ts)
		h.Write(pair.image(t, stage))
		pair.reload(t, stage)
		answer(stage+", restored", ts)
	}
	// An emptied store holds no high column: a new sample starts it afresh.
	if pair.real.(interface{ Len() int }).Len() == 0 {
		o := c.obj(rng, 0)
		pair.real.Insert(&o)
		if got := highColumns(pair.real); got != "" {
			t.Errorf("%s %s: emptied and refilled, high columns %q", c.name, pair.name, got)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// highColumns names the high columns an RSL or RSH holds: timestamps
// (ts), keyword references (kw), posting or bucket elements (slots), run
// headers (runs) and bucket links (links).
func highColumns(e Estimator) string {
	var s *sampleStore
	r := &ReservoirHashmap{}
	switch e := e.(type) {
	case *ReservoirList:
		s = &e.sampleStore
	case *ReservoirHashmap:
		s, r = &e.sampleStore, e
	}
	var names []string
	for _, c := range []struct {
		held bool
		name string
	}{
		{s.tsHi != nil, "ts"},
		{s.kwHi != nil, "kw"},
		{s.postings.slabHi != nil || r.buckets.slabHi != nil, "slots"},
		{s.postings.atHi != nil || r.buckets.atHi != nil, "runs"},
		{r.linksHi != nil, "links"},
	} {
		if c.held {
			names = append(names, c.name)
		}
	}
	return strings.Join(names, " ")
}

// TestReservoirNarrowLimits: on both sides of each narrow limit — the
// capacity, a timestamp 2⁵³ ms on, a dictionary of more IDs than 16 bits
// hold — RSL and RSH answer every query, and write every image, as the
// reference scans do and as the wide store did (the pinned digests), and
// hold exactly the high columns the case needs.
func TestReservoirNarrowLimits(t *testing.T) {
	for _, c := range limitCases {
		for est, pair := range reservoirPairs(c.p) {
			key := c.name + "/" + pair.name
			got := limitScript(t, c, pair, est)
			if want := pinnedLimitDigests[key]; got != want {
				t.Errorf("%s: digest %s, pinned %s", key, got, want)
			}
		}
	}
}

// TestResidentReservoirStaysNarrow: a store whose samples span an hour at
// a time keeps its timestamps in 32-bit offsets however long it runs. RSL
// and RSH fed across 2³³ ms, one object in nine half a span late, move
// their base rather than grow the tsHi column, answer as the reference
// scans do, and after the first hours hold no more than they did.
func TestResidentReservoirStaysNarrow(t *testing.T) {
	const hour = 3_600_000
	p := Params{World: geo.UnitSquare, Span: hour, Seed: 14, Scale: 0.01} // 163 samples
	for _, pair := range reservoirPairs(p) {
		rng := rand.New(rand.NewSource(14))
		settled, most := 0, 0
		for ts, i := int64(0), 0; ts < 1<<33; ts, i = ts+10_000, i+1 {
			o := genObject(rng, uint64(i), ts)
			if i%9 == 0 {
				o.Timestamp -= hour / 2
			}
			pair.real.Insert(&o)
			pair.ref.Insert(&o)
			if i%500 != 0 {
				continue
			}
			q := stream.HybridQ(geo.CenteredRect(geo.Pt(0.3, 0.3), 0.4, 0.4), []string{"kw1"}, ts)
			if got, want := pair.real.Estimate(&q), pair.ref.Estimate(&q); got != want {
				t.Fatalf("%s at %d ms: estimate %v, reference %v", pair.name, ts, got, want)
			}
			if m := pair.real.MemoryBytes(); ts < 1<<31 {
				settled = max(settled, m)
			} else {
				most = max(most, m)
			}
		}
		pair.check(t, "after 2³³ ms")
		if got := highColumns(pair.real); got != "" {
			t.Errorf("%s: high columns %q", pair.name, got)
		}
		t.Logf("%s MemoryBytes: %d at most before 2³¹ ms, %d at most after", pair.name, settled, most)
		if most > settled {
			t.Errorf("%s: MemoryBytes reached %d after 2³¹ ms, %d at most before", pair.name, most, settled)
		}
	}
}
