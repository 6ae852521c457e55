package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

// traceWriter is the Builder API a kernel drives, implemented both by
// Builder and by refBuilder.
type traceWriter interface {
	AllocRegion(name string, bytes int, kind RegionKind, priority int) Region
	On(core int)
	Phase(name string)
	LoadF(pc uint16, addr uint32)
	StoreF(pc uint16, addr uint32)
	LoadI(pc uint16, addr uint32)
	StoreI(pc uint16, addr uint32)
	FP(n int)
	Int(n int)
	SetNNZ(nnz int)
	Build() *Trace
}

// refBuilder is the reference trace builder: every event is appended to
// one growing slice, and a phase mark records that slice's length.
type refBuilder struct {
	t    Trace
	core uint8
	next uint32
}

func newRefBuilder(nGPE, nLCP int) *refBuilder {
	return &refBuilder{t: Trace{NCores: nGPE, NLCP: nLCP}, next: 1 << 12}
}

func (b *refBuilder) AllocRegion(name string, bytes int, kind RegionKind, priority int) Region {
	sz := (uint32(max(bytes, 1)) + LineSize - 1) &^ (LineSize - 1)
	r := Region{Name: name, Lo: b.next, Hi: b.next + sz, Kind: kind, Priority: priority}
	b.t.Regions = append(b.t.Regions, r)
	b.next += sz + LineSize
	return r
}

func (b *refBuilder) On(core int) { b.core = uint8(core) }

func (b *refBuilder) Phase(name string) {
	b.t.Phases = append(b.t.Phases, PhaseMark{Event: len(b.t.Events), Name: name})
}

func (b *refBuilder) emit(kind EventKind, pc uint16, addr uint32) {
	b.t.Events = append(b.t.Events, Event{Addr: addr, PC: pc, Core: b.core, Kind: kind})
	if kind.IsFP() {
		b.t.FPOps++
	}
}

func (b *refBuilder) LoadF(pc uint16, addr uint32)  { b.emit(KLoadF, pc, addr) }
func (b *refBuilder) StoreF(pc uint16, addr uint32) { b.emit(KStoreF, pc, addr) }
func (b *refBuilder) LoadI(pc uint16, addr uint32)  { b.emit(KLoadI, pc, addr) }
func (b *refBuilder) StoreI(pc uint16, addr uint32) { b.emit(KStoreI, pc, addr) }

func (b *refBuilder) FP(n int) {
	for i := 0; i < n; i++ {
		b.emit(KFP, 0, 0)
	}
}

func (b *refBuilder) Int(n int) {
	for i := 0; i < n; i++ {
		b.emit(KInt, 0, 0)
	}
}

func (b *refBuilder) SetNNZ(nnz int) { b.t.NNZ = nnz }

func (b *refBuilder) Build() *Trace {
	sort.Slice(b.t.Regions, func(i, j int) bool { return b.t.Regions[i].Lo < b.t.Regions[j].Lo })
	return &b.t
}

// chunkMarks are phase-mark positions at the first two chunk boundaries
// and one event either side of each.
var chunkMarks = []int{
	chunkEvents - 1, chunkEvents, chunkEvents + 1,
	2*chunkEvents - 1, 2 * chunkEvents, 2*chunkEvents + 1,
}

// writeTrace drives w through a seeded pseudo-random kernel of total
// events on every core and of every kind, placing a phase mark before the
// event at each index in marks (a mark equal to total lands after the last
// event), and returns the built trace.
func writeTrace(w traceWriter, seed int64, total int, marks []int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	regs := []Region{
		w.AllocRegion("vals", 1<<16, RegionStream, 2),
		w.AllocRegion("acc", 4096, RegionReuse, -1),
		w.AllocRegion("queue", 100, RegionBookkeep, 0),
	}
	nCores := testChip.NGPE() + testChip.Tiles
	n, m := 0, 0
	for n < total || (m < len(marks) && marks[m] == n) {
		if m < len(marks) && marks[m] == n {
			w.Phase(fmt.Sprintf("phase-%d", m))
			m++
			continue
		}
		// Emit at most up to the next mark or the end, so FP/Int runs that
		// straddle a chunk boundary still leave every mark exactly placed.
		limit := total - n
		if m < len(marks) && marks[m]-n < limit {
			limit = marks[m] - n
		}
		w.On(rng.Intn(nCores))
		r := regs[rng.Intn(len(regs))]
		addr := r.Lo + uint32(rng.Intn(int(r.Hi-r.Lo)))&^3
		pc := uint16(rng.Intn(64))
		switch k := rng.Intn(6); k {
		case 0:
			w.LoadF(pc, addr)
			n++
		case 1:
			w.StoreF(pc, addr)
			n++
		case 2:
			w.LoadI(pc, addr)
			n++
		case 3:
			w.StoreI(pc, addr)
			n++
		default:
			run := min(1+rng.Intn(7), limit)
			if k == 4 {
				w.FP(run)
			} else {
				w.Int(run)
			}
			n += run
		}
	}
	w.SetNNZ(int(seed) + total)
	return w.Build()
}

// sameTrace fails t unless got matches the reference trace want field by
// field, with an exactly sized Events slice.
func sameTrace(t *testing.T, got, want *Trace) {
	t.Helper()
	if len(got.Events) != len(want.Events) || cap(got.Events) != len(got.Events) {
		t.Fatalf("Events len %d cap %d, want len %d = cap", len(got.Events), cap(got.Events), len(want.Events))
	}
	if !slices.Equal(got.Events, want.Events) || (got.Events == nil) != (want.Events == nil) {
		t.Fatal("Events differ from the reference builder's")
	}
	if !reflect.DeepEqual(got.Phases, want.Phases) {
		t.Fatalf("Phases = %v, want %v", got.Phases, want.Phases)
	}
	if !reflect.DeepEqual(got.Regions, want.Regions) {
		t.Fatalf("Regions = %v, want %v", got.Regions, want.Regions)
	}
	if got.FPOps != want.FPOps || got.NNZ != want.NNZ || got.NCores != want.NCores || got.NLCP != want.NLCP {
		t.Fatalf("got %v nnz=%d, want %v nnz=%d", got, got.NNZ, want, want.NNZ)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("Fingerprint = %#x, want %#x", got.Fingerprint(), want.Fingerprint())
	}
}

// TestBuilderMatchesAppend builds traces spanning up to three chunks, with
// phase marks at and beside every chunk boundary, and requires them to
// equal the plain-append reference builder's.
func TestBuilderMatchesAppend(t *testing.T) {
	cases := []struct {
		name  string
		total int
		marks []int
	}{
		{"empty", 0, nil},
		{"empty-marked", 0, []int{0}},
		{"partial-chunk", 1000, []int{0, 999, 1000}},
		{"two-full-chunks", 2 * chunkEvents, append([]int{0}, chunkMarks[:5]...)},
		{"three-chunks", 2*chunkEvents + 5000, append([]int{0}, chunkMarks...)},
	}
	nGPE, nLCP := testChip.NGPE(), testChip.Tiles
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seed := int64(i + 1)
			got := writeTrace(NewBuilder(nGPE, nLCP), seed, c.total, c.marks)
			want := writeTrace(newRefBuilder(nGPE, nLCP), seed, c.total, c.marks)
			if len(want.Events) != c.total || len(want.Phases) != len(c.marks) {
				t.Fatalf("script wrote %d events, %d phases; want %d, %d",
					len(want.Events), len(want.Phases), c.total, len(c.marks))
			}
			sameTrace(t, got, want)
		})
	}
}

// TestBuilderConcurrentPoolReuse runs 8 builders at once, each checked
// against the reference builder, and then requires a trace built before
// them to be unchanged: the builders reuse its chunk through the pool, so
// this fails if a built trace aliased pooled memory. The first trace fits
// one chunk, the only shape that could alias one. Run it under -race.
func TestBuilderConcurrentPoolReuse(t *testing.T) {
	nGPE, nLCP := testChip.NGPE(), testChip.Tiles
	first := writeTrace(NewBuilder(nGPE, nLCP), 100, chunkEvents/2, nil)
	snapshot := slices.Clone(first.Events)
	fp := first.fingerprint()

	errs := make([]error, 8)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed, n := int64(g+1), 2*chunkEvents+3+1000*g
			got := writeTrace(NewBuilder(nGPE, nLCP), seed, n, chunkMarks)
			want := writeTrace(newRefBuilder(nGPE, nLCP), seed, n, chunkMarks)
			if !slices.Equal(got.Events, want.Events) || !reflect.DeepEqual(got.Phases, want.Phases) ||
				got.Fingerprint() != want.Fingerprint() {
				errs[g] = fmt.Errorf("builder %d differs from the reference builder", g)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if !slices.Equal(first.Events, snapshot) || first.fingerprint() != fp {
		t.Fatal("a built trace changed after later builders reused the pool")
	}
}
