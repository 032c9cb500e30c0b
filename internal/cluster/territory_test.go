package cluster

import (
	"testing"

	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/estimator"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/metrics"
	"github.com/spatiotext/latest/internal/stream"
)

// TestTerritoryHistogramBeatsWorldHistogram: a node whose H4096 covers its
// territory spends all 4 096 cells on the space it stores, where one over
// the world spends two thirds of them on other nodes' stripes. On Twitter
// data and a 3-node map, with ranges clipped to node 1's stripe, the
// territory histogram must be the more accurate at 1 % and 4 % range
// sides, on every seed.
func TestTerritoryHistogramBeatsWorldHistogram(t *testing.T) {
	const objects, queries = 120_000, 400
	for _, seed := range []int64{1, 2, 3} {
		gen := datagen.Twitter(seed, 2)
		world := gen.World()
		m := mustUniform(t, world, 9, 3, testNodes, 1)
		territory := m.Territory(1)
		span := int64(1) << 40 // every object stays live
		whole := estimator.NewHistogram(estimator.Params{World: world, Span: span})
		own := estimator.NewHistogram(estimator.Params{World: territory, Span: span})
		var stored []geo.Point
		var ts int64
		for i := 0; i < objects; i++ {
			o := gen.Next()
			ts = o.Timestamp
			if m.OwnerOf(o.Loc) != 1 {
				continue
			}
			whole.Insert(&o)
			own.Insert(&o)
			stored = append(stored, o.Loc)
		}
		for _, side := range []float64{0.01, 0.04} {
			var accWhole, accOwn float64
			n := 0
			for n < queries {
				c := gen.SampleQueryPoint()
				if !territory.Contains(c) {
					continue
				}
				r := territory.Intersect(geo.CenteredRect(c, side*world.Width(), side*world.Height()))
				actual := 0
				for _, p := range stored {
					if r.Contains(p) {
						actual++
					}
				}
				q := stream.SpatialQ(r, ts)
				accWhole += metrics.Accuracy(whole.Estimate(&q), float64(actual))
				accOwn += metrics.Accuracy(own.Estimate(&q), float64(actual))
				n++
			}
			accWhole /= queries
			accOwn /= queries
			t.Logf("seed %d, side %.0f%%: territory %.3f, world %.3f, gap %+.3f", seed, side*100, accOwn, accWhole, accOwn-accWhole)
			if accOwn <= accWhole {
				t.Errorf("seed %d, side %.0f%%: territory H4096 accuracy %.3f does not beat the world's %.3f",
					seed, side*100, accOwn, accWhole)
			}
		}
	}
}
