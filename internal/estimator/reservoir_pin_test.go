package estimator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"github.com/spatiotext/latest/internal/datagen"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
	"github.com/spatiotext/latest/internal/workload"
)

// pinnedReservoirDigests are SHA-256 digests of every image and every
// estimate's float bits that reservoirScript produces, per preset and
// estimator. They pin the reservoirs' observable state — slot order,
// bucket order, RNG state, estimates — across changes to how the store
// and its indexes are laid out in memory. Any change to them is a change
// of behaviour, not of layout.
var pinnedReservoirDigests = map[string]string{
	"Twitter/RSL": "f9b5dbbb4eb4ce59b9ffdd0cfabc772036e284f4a26049f9319eef36a5593111",
	"Twitter/RSH": "3320cca354000b36d70588f2ec3221ec5306301bd12ff690e0db4fd88b247b97",
	"eBird/RSL":   "18cc313a0e5bb4f7030724b6922d9224137ecec9b9b9d28251df74e305f273f1",
	"eBird/RSH":   "223d1453fbdd564187e278454724029dfe8351ef5a68375c16a1b5e5ec05134d",
	"CheckIn/RSL": "3c231b4f83fb360952ebfce90938370706ec08e7432ddca2969a9034b4ebf4d9",
	"CheckIn/RSH": "ae6192927b184115c2f4bdccda46d17b65dd900cf7890d8708df8f3816b68cb5",
}

// reservoirScript drives one reservoir through a fixed script on a preset
// stream and hashes what it shows: a draw from a 20 000-object window, 15
// 000 streamed inserts, estimates at the newest timestamp, estimates half a
// span later that purge about half the samples, then a Save→Load into a
// fresh reservoir, which answers and saves again.
func reservoirScript(t *testing.T, preset string, build func(Params) Sampler) string {
	const rate, span, filled, streamed = 2, 10_000, 20_000, 15_000
	g := datagen.ByName(preset, 1, rate)
	w := stream.NewWindow(g.World(), span, 1024)
	objs := make([]stream.Object, filled+streamed)
	for i := range objs {
		objs[i] = g.Next()
		objs[i].ID, objs[i].Timestamp = uint64(i), int64(i/rate)
	}
	for _, o := range objs[:filled] {
		w.Insert(o)
	}
	p := Params{World: g.World(), Span: span, Seed: 1, Scale: 0.25}
	s := build(p)
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, uint64(s.Draw(w)))
	for i := range objs[filled:] {
		s.Insert(&objs[filled+i])
	}
	now := objs[len(objs)-1].Timestamp
	qg := workload.NewGenerator(workload.ByName("TwQW1"), g, 1<<30)
	answer := func(e Estimator, ts int64) {
		for i := 0; i < 96; i++ {
			q := qg.Next(ts)
			binary.Write(h, binary.LittleEndian, math.Float64bits(e.Estimate(&q)))
		}
	}
	answer(s, now)
	answer(s, now+span/2)
	img := hashImage(h, s)
	restored := build(p)
	if err := restored.(Stateful).LoadState(persist.NewDec(img)); err != nil {
		t.Fatalf("%s %s: %v", preset, s.Name(), err)
	}
	answer(restored, now+span/2)
	hashImage(h, restored)
	return hex.EncodeToString(h.Sum(nil))
}

// hashImage folds e's image into h and returns it.
func hashImage(h hash.Hash, e Estimator) []byte {
	var enc persist.Enc
	e.(Stateful).SaveState(&enc)
	h.Write(enc.Data())
	return enc.Data()
}

// TestReservoirImagesArePinned: RSL and RSH show, image for image and
// estimate for estimate, what they showed when the digests were recorded.
func TestReservoirImagesArePinned(t *testing.T) {
	for _, preset := range datagen.Names() {
		for _, sb := range samplerBuilds[:2] {
			key := preset + "/" + sb.name
			got := reservoirScript(t, preset, sb.build)
			if want := pinnedReservoirDigests[key]; got != want {
				t.Errorf("%s: digest %s, pinned %s", key, got, want)
			}
		}
	}
}
