package estimator

import (
	"math/rand"
	"testing"

	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/workload"
)

// The Twitter-preset cases below run an estimator at its default size in
// the steady state of the repository's benchmark (benchmark/inputs.go): two
// objects per virtual millisecond against a 60 s window, so 120 000 live
// objects — behind 16 384 samples for a reservoir, every admission a
// replacement, or in about 6 200 AASP tree nodes. Their numbers line up with
// the estimator.RSL|RSH|AASP.* lines of the ledger, which the small
// synthetic cases above them in the output do not.
const (
	twitterRatePerMS = 2
	twitterSpanMS    = 60_000
	twitterWindow    = twitterRatePerMS * twitterSpanMS
)

// presetStream is a replayable stream of one dataset preset at the Twitter
// case's rate: a pool of three windows of objects, each stamped with the
// timestamp of the stream position it is replayed at.
type presetStream struct {
	gen  *datagen.Generator
	pool []stream.Object
	next int
}

func newTwitterStream() *presetStream { return newPresetStream("Twitter") }

func newPresetStream(preset string) *presetStream {
	s := &presetStream{gen: datagen.ByName(preset, 1, twitterRatePerMS)}
	s.pool = make([]stream.Object, 3*twitterWindow)
	for i := range s.pool {
		s.pool[i] = s.gen.Next()
	}
	return s
}

func (s *presetStream) params() Params {
	return Params{World: s.gen.World(), Span: twitterSpanMS, Seed: 1}
}

// now is the timestamp of the newest object fed.
func (s *presetStream) now() int64 { return int64((s.next - 1) / twitterRatePerMS) }

// window returns an exact window holding the stream's next full window of
// objects, which it consumes.
func (s *presetStream) window() *stream.Window {
	w := stream.NewWindow(s.gen.World(), twitterSpanMS, 4096)
	o := new(stream.Object)
	for n := twitterWindow; n > 0; n-- {
		s.stamp(o)
		w.Insert(*o)
	}
	return w
}

// stamp sets o to the next stream object.
func (s *presetStream) stamp(o *stream.Object) {
	*o = s.pool[s.next%len(s.pool)]
	o.ID, o.Timestamp = uint64(s.next), int64(s.next/twitterRatePerMS)
	s.next++
}

// feed inserts the next n stream objects, through one object that escapes
// once rather than once per insert.
func (s *presetStream) feed(e Estimator, n int) {
	o := new(stream.Object)
	for ; n > 0; n-- {
		s.stamp(o)
		e.Insert(o)
	}
}

// queries draws n TwQW1 queries of one type, issued at ts.
func (s *presetStream) queries(typ stream.QueryType, n int, ts int64) []stream.Query {
	g := workload.NewGenerator(workload.ByName("TwQW1"), s.gen, 1<<30)
	var out []stream.Query
	for len(out) < n {
		if q := g.Next(ts); q.Type() == typ {
			out = append(out, q)
		}
	}
	return out
}

// reservoirBenchQueries is one query of each type over the filled test
// reservoir; "keyword" asks for a rare word, which no posting list or
// signature makes expensive.
func reservoirBenchQueries(ts int64) map[string]stream.Query {
	r := geo.CenteredRect(geo.Pt(0.3, 0.3), 0.3, 0.3)
	return map[string]stream.Query{
		"spatial": stream.SpatialQ(r, ts),
		"keyword": stream.KeywordQ([]string{"kw40", "kw45"}, ts),
		"hybrid":  stream.HybridQ(r, []string{"kw0"}, ts),
	}
}

var benchSink float64

func benchEstimate(b *testing.B, build func(Params) Estimator) {
	e := build(testParams())
	rng := rand.New(rand.NewSource(1))
	ts := int64(0)
	for i := 0; i < 40000; i++ {
		ts++
		o := genObject(rng, uint64(i), ts)
		e.Insert(&o)
	}
	for _, name := range []string{"spatial", "keyword", "hybrid"} {
		q := reservoirBenchQueries(ts)[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = e.Estimate(&q)
			}
		})
	}
	tw := newTwitterStream()
	e = build(tw.params())
	tw.feed(e, 2*twitterWindow)
	for _, typ := range []stream.QueryType{stream.SpatialQuery, stream.KeywordQuery, stream.HybridQuery} {
		qs := tw.queries(typ, 256, tw.now())
		b.Run("twitter-"+typ.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = e.Estimate(&qs[i%len(qs)])
			}
		})
	}
}

func BenchmarkRSLEstimate(b *testing.B) {
	benchEstimate(b, func(p Params) Estimator { return NewReservoirList(p) })
}

func BenchmarkRSHEstimate(b *testing.B) {
	benchEstimate(b, func(p Params) Estimator { return NewReservoirHashmap(p) })
}

func BenchmarkAASPEstimate(b *testing.B) {
	benchEstimate(b, func(p Params) Estimator { return NewAASP(p) })
}

// benchInsertSteady times Insert on a default-size estimator over a full
// window. In a reservoir about one arrival in seven replaces a sample, and
// that one pays for the keyword index; SPN only counts the arrival; AASP
// counts every arrival into its tree and retires a slice every 15 000.
func benchInsertSteady(b *testing.B, build func(Params) Estimator) {
	tw := newTwitterStream()
	e := build(tw.params())
	tw.feed(e, 2*twitterWindow)
	b.ReportAllocs()
	b.ResetTimer()
	tw.feed(e, b.N)
}

func BenchmarkRSLInsertSteady(b *testing.B) {
	benchInsertSteady(b, func(p Params) Estimator { return NewReservoirList(p) })
}

func BenchmarkRSHInsertSteady(b *testing.B) {
	benchInsertSteady(b, func(p Params) Estimator { return NewReservoirHashmap(p) })
}

func BenchmarkSPNInsertSteady(b *testing.B) {
	benchInsertSteady(b, func(p Params) Estimator { return NewSPN(p) })
}

func BenchmarkAASPInsertSteady(b *testing.B) {
	benchInsertSteady(b, func(p Params) Estimator { return NewAASP(p) })
}

// BenchmarkDraw times one Draw of each sampler at its default size from a
// full Twitter window of 120 000 live objects: the pre-fill a switch to it
// costs, and for SPN also each later refit, as its Draw is its fit.
func BenchmarkDraw(b *testing.B) {
	tw := newTwitterStream()
	w := tw.window()
	for _, sb := range samplerBuilds {
		b.Run(sb.name, func(b *testing.B) {
			s := sb.build(tw.params())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Draw(w)
			}
		})
	}
}
