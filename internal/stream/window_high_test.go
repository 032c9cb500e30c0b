package stream_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/spatiotext/latest/internal/check"
	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/stream"
)

const day = int64(24 * 60 * 60 * 1000) // in virtual ms

// highCase is a stream whose timestamps, IDs or keyword bytes do not fit
// a record's offset fields somewhere. image is the SHA-256 of the window's
// SaveState at the end, as written by the arena whose records held the
// full 64-bit fields: the 16-byte records and their high columns must not
// move a byte of it.
type highCase struct {
	name  string
	span  int64
	n     int
	next  func(rng *rand.Rand, i int) (id uint64, ts int64)
	long  bool        // objects carry 150 to 199 keywords of 200
	highs map[int]int // after insert i, how many high columns the window holds
	image string
}

var highCases = []highCase{
	{
		// Chunk 0 holds 300 objects and then 212 from 50 days later, chunk 1
		// the rest of those and then 124 from 120 days in, which evict
		// everything before them: chunk 0 is recycled without its column.
		name: "50-day gap",
		span: 60 * day,
		n:    2000,
		next: func(_ *rand.Rand, i int) (uint64, int64) {
			switch {
			case i < 300:
				return uint64(i), int64(i)
			case i < 900:
				return uint64(i), 50*day + int64(i)
			}
			return uint64(i), 120*day + int64(i)
		},
		highs: map[int]int{299: 0, 300: 1, 899: 1, 900: 1, 1023: 1, 1999: 1},
		image: "6482c2065de05a2087766ad9f4cb8515e0634a022556750076b879a5ce827f1c",
	},
	{
		// The same timestamps with 64-bit random IDs: from slot 1 every
		// chunk has an ID column, and the chunks across a gap a timestamp
		// column as well.
		name: "50-day gap, 64-bit random IDs",
		span: 60 * day,
		n:    2000,
		next: func(rng *rand.Rand, i int) (uint64, int64) {
			switch {
			case i < 300:
				return rng.Uint64(), int64(i)
			case i < 900:
				return rng.Uint64(), 50*day + int64(i)
			}
			return rng.Uint64(), 120*day + int64(i)
		},
		highs: map[int]int{0: 0, 1: 1, 299: 1, 300: 2, 512: 2, 513: 3, 900: 2, 1999: 4},
		image: "17a659615af4b90d2cc7179e99599742d57b91397771d17079f099ec55ebab51",
	},
	{
		name:  "decreasing IDs",
		span:  500,
		n:     3000,
		next:  func(_ *rand.Rand, i int) (uint64, int64) { return 1<<40 - uint64(i), int64(i / 2) },
		highs: map[int]int{0: 0, 1: 1, 511: 1, 512: 1, 513: 2},
		image: "46c9ee067b365c22d8b74a300dc315f39ce21451c61d2c4f8802122ac6c0c5e1",
	},
	{
		name:  "64-bit random IDs",
		span:  500,
		n:     3000,
		next:  func(rng *rand.Rand, i int) (uint64, int64) { return rng.Uint64(), int64(i / 2) },
		image: "a5a9ed4042e4ac1f29312b2230a763321d99a9c8859e87ca2dd012dbd99024c3",
	},
	{
		// Chunk 0 has an ID high column; every chunk after it, the recycled one
		// included, has none.
		name: "chunk with a high column recycled",
		span: 500,
		n:    3000,
		next: func(rng *rand.Rand, i int) (uint64, int64) {
			if i < 512 {
				return rng.Uint64(), int64(i / 2)
			}
			return uint64(i), int64(i / 2)
		},
		highs: map[int]int{511: 1, 512: 1, 1510: 1, 1514: 0, 2999: 0},
		image: "3213994cba8d0a617f18920d30a4b4432889f5266721a023cbb477b148971c68",
	},
	{
		// Objects 200 ms apart: slot 328 of every chunk is the first whose
		// timestamp is 2¹⁶ ms or more after slot 0's, and no chunk spans
		// 2³² ms. Chunk 0 is recycled, with its column, at insert 2012.
		name:  "slow stream",
		span:  300_000,
		n:     3000,
		next:  func(_ *rand.Rand, i int) (uint64, int64) { return uint64(i), 200 * int64(i) },
		highs: map[int]int{327: 0, 328: 1, 839: 1, 840: 2, 1864: 4, 2011: 4, 2012: 3, 2999: 4},
		image: "4c639fc3c6bdc329827006caebafa0c06e1eb45ed83aa5a8c3c21346bade5440",
	},
	{
		// Objects 2⁵³ ms apart across zero: bits 48 to 63 of chunk 0's
		// timestamp offsets take a column, bits 16 to 47 none.
		name: "gap of 2⁵³ ms across zero",
		span: 1 << 54,
		n:    1200,
		next: func(_ *rand.Rand, i int) (uint64, int64) {
			if i < 300 {
				return uint64(i), -1<<52 + int64(i)
			}
			return uint64(i), 1<<52 + int64(i)
		},
		highs: map[int]int{299: 0, 300: 1, 1199: 1},
		image: "85b9959a65d969db1a1a09fa71933bc5f64d2f9054dd349ea597c463a0f4e99a",
	},
	{
		// Every chunk's keyword IDs pass 64 KiB a few hundred slots in, and
		// chunk 0 is recycled, with its column, at insert 1512.
		name:  "keyword store past 64 KiB",
		span:  500,
		n:     2000,
		next:  func(_ *rand.Rand, i int) (uint64, int64) { return uint64(i), int64(i / 2) },
		long:  true,
		highs: map[int]int{271: 0, 272: 1, 787: 2, 1298: 3, 1512: 2, 1999: 3},
		image: "c8a16f344c5dcaf0df120ddc212076d60a41fed5475c7fcbfd0b0a9fa90cc68b",
	},
}

// objects returns the case's stream: random locations and up to two of
// ten keywords, or for a long case 150 to 199 of those ten and 190 more,
// with the case's IDs and timestamps.
func (tc highCase) objects() []stream.Object {
	rng := rand.New(rand.NewSource(17))
	vocab := []string{"aw", "bw", "cw", "dw", "ew", "fw", "gw", "hw", "iw", "jw"}
	for i := len(vocab); tc.long && i < 200; i++ {
		vocab = append(vocab, fmt.Sprintf("w%03d", i))
	}
	objs := make([]stream.Object, tc.n)
	for i := range objs {
		o := &objs[i]
		o.Loc = geo.Pt(rng.Float64(), rng.Float64())
		o.Keywords = []string{vocab[rng.Intn(10)], vocab[rng.Intn(10)]}[:rng.Intn(3)]
		if tc.long {
			for k := 150 + rng.Intn(50); k > 0; k-- {
				o.Keywords = append(o.Keywords, vocab[rng.Intn(len(vocab))])
			}
		}
		o.ID, o.Timestamp = tc.next(rng, i)
	}
	return objs
}

// TestWindowHighColumns runs each high case against the brute-force
// oracle: every live object reads back with its own ID and timestamp, every
// count matches, the image is the one the 64-bit arena wrote, and it
// restores to a window that writes it again.
func TestWindowHighColumns(t *testing.T) {
	for _, tc := range highCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(18))
			w := stream.NewWindow(geo.UnitSquare, tc.span, 64)
			oracle := check.NewOracle(tc.span)
			var live []stream.Object
			for i, o := range tc.objects() {
				w.Insert(o)
				oracle.Insert(&o)
				live = append(live, onLattice(geo.UnitSquare, o))
				live = live[len(live)-oracle.Size():]

				if want, ok := tc.highs[i]; ok && w.HighColumns() != want {
					t.Fatalf("after insert %d the window holds %d high columns, want %d", i, w.HighColumns(), want)
				}
				if i%97 != 0 && i != tc.n-1 {
					continue
				}
				if got := liveObjects(w); !reflect.DeepEqual(got, live) {
					t.Fatalf("insert %d: Each yields %d objects that differ from the %d live ones", i, len(got), len(live))
				}
				for j := range live {
					if ts := w.TimestampAt(j); ts != live[j].Timestamp {
						t.Fatalf("insert %d: TimestampAt(%d) = %d, want %d", i, j, ts, live[j].Timestamp)
					}
				}
				r := geo.CenteredRect(geo.Pt(rng.Float64(), rng.Float64()), 0.1+rng.Float64()*0.5, 0.1+rng.Float64()*0.5)
				kws := []string{"aw", "dw", "absent"}[rng.Intn(2):]
				for _, q := range []stream.Query{
					stream.SpatialQ(r, o.Timestamp),
					stream.KeywordQ(kws, o.Timestamp),
					stream.HybridQ(r, kws, o.Timestamp),
				} {
					if got, want := w.Count(&q), oracle.CountLive(&q); got != want {
						t.Fatalf("insert %d, %v: window %d, oracle %d", i, q, got, want)
					}
				}
			}

			var saved persist.Enc
			w.SaveState(&saved)
			sum := sha256.Sum256(saved.Data())
			if got := hex.EncodeToString(sum[:]); got != tc.image {
				t.Errorf("image SHA-256 %s, want %s", got, tc.image)
			}
			back := stream.NewWindow(geo.UnitSquare, tc.span, 64)
			if err := back.LoadState(persist.NewDec(saved.Data())); err != nil {
				t.Fatal(err)
			}
			var again persist.Enc
			back.SaveState(&again)
			if !reflect.DeepEqual(saved.Data(), again.Data()) || !reflect.DeepEqual(liveObjects(back), live) {
				t.Error("window does not round-trip through SaveState/LoadState")
			}
		})
	}
}

// FuzzWindowLoadState: LoadState reads bytes it has no reason to trust.
// Whatever they are, it either restores the window that re-inserting the
// image's objects after its base builds — same contents, same answers, same
// image, and the same window after one more insert — or fails with a typed
// persist error; it does not panic. float reads the bytes as an image of
// the format whose locations were float64s (LoadFloatState). The seeds
// are windows of 24 objects from each high case, taken where its IDs or
// timestamps stop fitting, in both formats: small, so that the fuzzer
// minimizes fast.
func FuzzWindowLoadState(f *testing.F) {
	for _, tc := range highCases {
		objs := tc.objects()
		for _, from := range []int{0, 290, 500, 890} {
			w := stream.NewWindow(geo.UnitSquare, tc.span, 64)
			var legacy persist.Enc
			legacy.U64(0)
			legacy.U64(24)
			legacy.U64(0)
			legacy.U32(24)
			for _, o := range objs[from : from+24] {
				w.Insert(o)
				stream.EncodeObject(&legacy, &o)
			}
			var e persist.Enc
			w.SaveState(&e)
			f.Add(e.Data(), tc.span > 500, false)
			f.Add(legacy.Data(), tc.span > 500, true)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, long, float bool) {
		span := int64(500)
		if long {
			span = 60 * day
		}
		w := stream.NewWindow(geo.UnitSquare, span, 64)
		load := w.LoadState
		if float {
			load = w.LoadFloatState
		}
		if err := load(persist.NewDec(data)); err != nil {
			if persist.CodeOf(err) == 0 {
				t.Fatalf("LoadState error is not a typed persist error: %v", err)
			}
			return
		}
		d := persist.NewDec(data)
		base, inserted, evicted, count := d.U64(), d.U64(), d.U64(), int(d.U32())
		ref := emptyWindowAt(t, span, base)
		lat := geo.NewLattice(geo.UnitSquare)
		for i := 0; i < count; i++ {
			if float {
				ref.Insert(stream.DecodeObject(d))
				continue
			}
			o := stream.Object{ID: d.U64()}
			o.Loc = lat.Unsnap(geo.LPoint{X: d.U32(), Y: d.U32()})
			o.Timestamp, o.Keywords = d.I64(), d.Strs()
			ref.Insert(o)
		}
		same := func(stage string) {
			t.Helper()
			var a, b persist.Enc
			w.SaveState(&a)
			ref.SaveState(&b)
			if !bytes.Equal(a.Data()[24:], b.Data()[24:]) || w.NextSeq() != ref.NextSeq() ||
				w.DistinctKeywords() != ref.DistinctKeywords() || w.MemoryBytes() != ref.MemoryBytes() {
				t.Fatalf("%s: restored window differs from re-inserting its %d objects", stage, count)
			}
			for _, q := range []stream.Query{
				stream.SpatialQ(geo.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.7, MaxY: 0.9}, 0),
				stream.KeywordQ([]string{"aw", "dw", ""}, 0),
				stream.HybridQ(geo.Rect{MinX: 0.3, MinY: 0, MaxX: 1, MaxY: 0.5}, []string{"bw"}, 0),
			} {
				if got, want := w.Count(&q), ref.Count(&q); got != want {
					t.Fatalf("%s, %v: restored %d, re-inserted %d", stage, q, got, want)
				}
			}
		}
		same("restored")
		var img persist.Enc
		w.SaveState(&img)
		if got := persist.NewDec(img.Data()); got.U64() != base || got.U64() != inserted || got.U64() != evicted {
			t.Fatal("restored window does not keep the image's counters")
		}
		if count > 0 {
			o := stream.Object{ID: 7, Loc: geo.Pt(0.5, 0.5), Keywords: []string{"aw"}, Timestamp: w.TimestampAt(w.Size() - 1)}
			w.Insert(o)
			ref.Insert(o)
			same("inserted")
		}
	})
}

// TestWindowLoadStateRefusesEvictedPair: Insert never leaves two objects
// more than the span apart in a window, so an image that holds them is
// malformed, in either format; at exactly the span apart both stay.
func TestWindowLoadStateRefusesEvictedPair(t *testing.T) {
	for _, tc := range []struct {
		last int64
		code persist.ErrorCode
	}{{500, 0}, {501, persist.CodeMalformed}} {
		for _, float := range []bool{false, true} {
			var e persist.Enc
			e.U64(0) // base
			e.U64(2) // inserted
			e.U64(0) // evicted
			e.U32(2) // live objects
			for _, ts := range []int64{0, tc.last} {
				if float {
					stream.EncodeObject(&e, &stream.Object{Loc: geo.Pt(0.5, 0.5), Timestamp: ts})
					continue
				}
				e.U64(0)
				e.U32(1 << 31)
				e.U32(1 << 31)
				e.I64(ts)
				e.Strs(nil)
			}
			w := stream.NewWindow(geo.UnitSquare, 500, 64)
			load := w.LoadState
			if float {
				load = w.LoadFloatState
			}
			if err := load(persist.NewDec(e.Data())); persist.CodeOf(err) != tc.code {
				t.Errorf("objects at 0 and %d in a 500 ms window (float image %v): load = %v, want code %v", tc.last, float, err, tc.code)
			}
		}
	}
}
