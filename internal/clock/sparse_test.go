package clock

import (
	"fmt"
	"testing"
)

// model is the obviously-correct reference: a map from tid to Time.
type model map[TID]Time

func (m model) set(tid TID, t Time) {
	if t == 0 {
		delete(m, tid)
		return
	}
	m[tid] = t
}

func (m model) join(o model) {
	for tid, t := range o {
		if t > m[tid] {
			m[tid] = t
		}
	}
}

func checkAgainstModel(t *testing.T, label string, v *VC, m model, span TID) {
	t.Helper()
	for tid := TID(0); tid <= span; tid++ {
		if got, want := v.Get(tid), m[tid]; got != want {
			t.Fatalf("%s: Get(%d) = %d, want %d (clock %v)", label, tid, got, want, v)
		}
	}
	seen := model{}
	last := TID(-1)
	v.ForEach(func(tid TID, tm Time) {
		if tid <= last {
			t.Fatalf("%s: ForEach out of order: %d after %d", label, tid, last)
		}
		last = tid
		seen[tid] = tm
	})
	for tid, tm := range m {
		if tm != 0 && seen[tid] != tm {
			t.Fatalf("%s: ForEach missed tid %d (= %d, saw %d)", label, tid, tm, seen[tid])
		}
	}
	for tid, tm := range seen {
		if m[tid] != tm {
			t.Fatalf("%s: ForEach invented tid %d = %d (model %d)", label, tid, tm, m[tid])
		}
	}
}

func TestSparseBasicOps(t *testing.T) {
	var st Stats
	v := NewSparse(&st)
	m := model{}
	if !v.Sparse() {
		t.Fatal("NewSparse must start sparse")
	}
	if v.Get(900) != 0 {
		t.Fatal("fresh sparse clock must read 0 everywhere")
	}
	v.Set(900, 7)
	m.set(900, 7)
	v.Tick(3)
	m.set(3, 1)
	v.Tick(3)
	m.set(3, 2)
	checkAgainstModel(t, "basic", v, m, 1024)
	if v.Len() != 2 {
		t.Fatalf("sparse Len = %d, want 2 live entries", v.Len())
	}
	v.Set(900, 0)
	m.set(900, 0)
	if v.Len() != 1 {
		t.Fatalf("clearing a component must drop its entry, Len = %d", v.Len())
	}
}

func TestSparsePromotionThreshold(t *testing.T) {
	var st Stats
	v := NewSparse(&st)
	// Dense span 1024: entries stay sparse until they cover more than 1/4.
	v.Set(1023, 1)
	for i := TID(0); i < 200; i++ {
		v.Set(i, Time(i)+1)
	}
	if !v.Sparse() {
		t.Fatalf("201 entries over span 1024 must stay sparse")
	}
	for i := TID(200); i < 300; i++ {
		v.Set(i, Time(i)+1)
	}
	if v.Sparse() {
		t.Fatalf("301 entries over span 1024 must promote")
	}
	if st.Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", st.Promotions)
	}
	// Value preserved across promotion.
	if v.Get(1023) != 1 || v.Get(250) != 251 {
		t.Fatalf("promotion lost values: %v", v)
	}
	// Small clocks promote fast: span 8 with 5 entries goes dense.
	w := NewSparse(&st)
	for i := TID(0); i < 5; i++ {
		w.Set(i, 1)
	}
	if w.Sparse() {
		t.Fatal("5 entries over span 5 must promote")
	}
}

func TestSparseJoinMatrix(t *testing.T) {
	var st Stats
	mk := map[string]func() *VC{
		"dense":  func() *VC { return New(0) },
		"sparse": func() *VC { return NewSparse(&st) },
	}
	for vn, mkv := range mk {
		for on, mko := range mk {
			v, o := mkv(), mko()
			mv, mo := model{}, model{}
			v.Set(2, 9)
			mv.set(2, 9)
			v.Set(700, 3)
			mv.set(700, 3)
			o.Set(2, 4)
			mo.set(2, 4)
			o.Set(5, 11)
			mo.set(5, 11)
			o.Set(900, 2)
			mo.set(900, 2)
			v.Join(o)
			mv.join(mo)
			checkAgainstModel(t, vn+"←"+on, v, mv, 1024)
			checkAgainstModel(t, vn+"←"+on+" (src untouched)", o, mo, 1024)
		}
	}
}

// collapse runs one NextBase+Rebase round over the given clocks, mimicking
// the detector's collapse sweep, and returns the new base.
func collapse(prev *Base, vcs []*VC) *Base {
	nb := NextBase(prev, vcs)
	for _, v := range vcs {
		v.Rebase(nb)
	}
	return nb
}

func TestCollapseShrinksIdleEntries(t *testing.T) {
	var st Stats
	const n = 64
	vcs := make([]*VC, n)
	ms := make([]model, n)
	for i := range vcs {
		vcs[i] = NewSparse(&st)
		ms[i] = model{}
	}
	// Simulate a barrier: everyone's clock gets everyone's component.
	all := model{}
	for i := range vcs {
		all.set(TID(i), Time(i)+1)
	}
	for i := range vcs {
		for tid, tm := range all {
			vcs[i].Set(tid, tm)
		}
		ms[i].join(all)
	}
	// Post-barrier clocks are dense-ish; a collapse moves the common floor
	// into the base and strips the entries back down.
	base := collapse(nil, vcs)
	for i := range vcs {
		checkAgainstModel(t, fmt.Sprintf("post-collapse clock %d", i), vcs[i], ms[i], n+4)
		if vcs[i].Len() > 4 {
			t.Fatalf("clock %d still carries %d entries after collapse", i, vcs[i].Len())
		}
	}
	// A couple of live threads advance; another collapse only re-raises
	// their components.
	vcs[3].Tick(3)
	ms[3].set(3, ms[3][3]+1)
	vcs[7].Tick(7)
	ms[7].set(7, ms[7][7]+1)
	base = collapse(base, vcs)
	for i := range vcs {
		checkAgainstModel(t, fmt.Sprintf("round-2 clock %d", i), vcs[i], ms[i], n+4)
	}
	if st.Collapses != 0 {
		t.Fatalf("clock package must not count Collapses itself (detector does): %d", st.Collapses)
	}
}

func TestRebaseFastPathMatchesGeneral(t *testing.T) {
	var st Stats
	const n = 32
	mkWorld := func() ([]*VC, []model) {
		vcs := make([]*VC, n)
		ms := make([]model, n)
		for i := range vcs {
			vcs[i] = NewSparse(&st)
			ms[i] = model{}
			vcs[i].Tick(TID(i))
			ms[i].set(TID(i), 1)
		}
		return vcs, ms
	}
	vcs, ms := mkWorld()
	base := collapse(nil, vcs)
	// Everyone advances; thread 5 additionally learns of thread 9.
	for i := range vcs {
		vcs[i].Tick(TID(i))
		ms[i].set(TID(i), ms[i][TID(i)]+1)
	}
	vcs[5].Set(9, 2)
	ms[5].set(9, 2)
	base = collapse(base, vcs)
	if base.Gen() != 2 {
		t.Fatalf("generation = %d, want 2", base.Gen())
	}
	for i := range vcs {
		checkAgainstModel(t, fmt.Sprintf("clock %d", i), vcs[i], ms[i], n+4)
	}
	// A clock left on an older base (lazy sync clock) joins one on the new
	// base: the general rebase path inside Join must agree too.
	lazy := NewSparse(&st)
	lm := model{}
	lazy.Join(vcs[5])
	lm.join(ms[5])
	checkAgainstModel(t, "lazy adopter", lazy, lm, n+4)
}

func TestRebaseDemotesDenseClock(t *testing.T) {
	var st Stats
	const n = 64
	vcs := make([]*VC, n)
	for i := range vcs {
		vcs[i] = NewSparse(&st)
		vcs[i].Tick(TID(i))
	}
	// A full barrier: every clock joins every component, so all promote to
	// dense (n entries over span n).
	for i := range vcs {
		for j := 0; j < n; j++ {
			vcs[i].Set(TID(j), 1)
		}
		if vcs[i].Sparse() {
			t.Fatalf("setup: clock %d should have promoted", i)
		}
	}
	// Clock 0 then advances a little past the barrier.
	vcs[0].Tick(0)
	collapse(nil, vcs)
	if !vcs[0].Sparse() {
		t.Fatal("collapse must demote a dense clock that sits near the base")
	}
	if vcs[0].Len() != 1 {
		t.Fatalf("demoted clock should carry 1 entry, has %d", vcs[0].Len())
	}
	m := model{}
	for i := 0; i < n; i++ {
		m.set(TID(i), 1)
	}
	m.set(0, 2)
	checkAgainstModel(t, "demoted", vcs[0], m, n+4)
}

func TestJoinAllMatchesSequential(t *testing.T) {
	var st Stats
	const n = 40
	mk := func() ([]*VC, *VC) {
		srcs := make([]*VC, n)
		for i := range srcs {
			srcs[i] = NewSparse(&st)
			srcs[i].Tick(TID(i + 1))
			srcs[i].Tick(TID(i + 1))
			if i%3 == 0 {
				srcs[i].Set(TID((i+7)%n), 5)
			}
		}
		dst := NewSparse(&st)
		dst.Tick(0)
		return srcs, dst
	}
	srcs, dst := mk()
	srcs2 := make([]*VC, n)
	for i := range srcs {
		srcs2[i] = srcs[i].Clone()
	}
	seq := dst.Clone()
	for _, s := range srcs2 {
		seq.Join(s)
	}
	JoinAll(dst, srcs)
	for tid := TID(0); tid < n+8; tid++ {
		if dst.Get(tid) != seq.Get(tid) {
			t.Fatalf("JoinAll diverges at tid %d: %d vs %d", tid, dst.Get(tid), seq.Get(tid))
		}
	}
	// With a shared base in play (post-collapse), still identical.
	base := collapse(nil, srcs)
	_ = base
	dst2 := NewSparse(&st)
	dst2.Tick(0)
	seq2 := dst2.Clone()
	for _, s := range srcs {
		seq2.Join(s)
	}
	JoinAll(dst2, srcs)
	for tid := TID(0); tid < n+8; tid++ {
		if dst2.Get(tid) != seq2.Get(tid) {
			t.Fatalf("post-collapse JoinAll diverges at tid %d: %d vs %d", tid, dst2.Get(tid), seq2.Get(tid))
		}
	}
}

func TestCrossLineageJoinFallsBack(t *testing.T) {
	var st Stats
	a := []*VC{NewSparse(&st)}
	b := []*VC{NewSparse(&st)}
	a[0].Tick(0)
	b[0].Tick(1)
	collapse(nil, a)
	collapse(nil, b)
	before := st.Fallbacks
	a[0].Join(b[0])
	if st.Fallbacks != before+1 {
		t.Fatalf("cross-lineage join must count a fallback (got %d→%d)", before, st.Fallbacks)
	}
	if a[0].Get(0) != 1 || a[0].Get(1) != 1 {
		t.Fatalf("cross-lineage join wrong: %v", a[0])
	}
}

// TestClearNeverLeaksStaleEntries pins the pool-recycling contract: a clock
// that carried high-tid entries — and may have promoted to dense — reads
// all-zeros after Clear, in every representation, including after the
// re-grow that used to resurrect stale components.
func TestClearNeverLeaksStaleEntries(t *testing.T) {
	var st Stats
	v := NewSparse(&st)
	for i := TID(0); i < 1024; i += 64 {
		v.Set(i, Time(i)+9)
	}
	v.Set(1023, 77)
	v.Clear(8)
	if v.Len() != 0 {
		t.Fatalf("Clear left %d live entries", v.Len())
	}
	for i := TID(0); i < 1100; i++ {
		if v.Get(i) != 0 {
			t.Fatalf("stale entry leaked at tid %d after Clear", i)
		}
	}
	v.ForEach(func(tid TID, tm Time) { t.Fatalf("ForEach visited %d=%d after Clear", tid, tm) })

	// Promote, then Clear: a sparse-capable clock must return to sparse and
	// still read zero everywhere.
	for i := TID(0); i < 64; i++ {
		v.Set(i, 3)
	}
	if v.Sparse() {
		t.Fatal("setup: expected promotion")
	}
	v.Clear(1024)
	if !v.Sparse() {
		t.Fatal("Clear must return a sparse-capable clock to sparse form")
	}
	for i := TID(0); i < 1100; i++ {
		if v.Get(i) != 0 {
			t.Fatalf("stale dense component leaked at tid %d after Clear", i)
		}
	}

	// The dense-only regression from PR 3 still holds.
	d := New(0)
	d.Set(100, 5)
	d.Clear(4)
	d.Set(2, 1)
	for i := TID(0); i < 128; i++ {
		want := Time(0)
		if i == 2 {
			want = 1
		}
		if d.Get(i) != want {
			t.Fatalf("dense Clear leaked at tid %d", i)
		}
	}
}

func TestAssignAndCloneAcrossRepresentations(t *testing.T) {
	var st Stats
	s := NewSparse(&st)
	s.Set(9, 4)
	s.Set(500, 2)
	d := New(3)
	d.Set(1, 8)

	c := s.Clone()
	s.Set(9, 99)
	if c.Get(9) != 4 || c.Get(500) != 2 {
		t.Fatal("sparse Clone must be independent")
	}
	x := New(0)
	x.Assign(s)
	if x.Get(9) != 99 || x.Get(500) != 2 {
		t.Fatalf("Assign dense←sparse wrong: %v", x)
	}
	y := NewSparse(&st)
	y.Set(7, 7)
	y.Assign(d)
	if y.Get(1) != 8 || y.Get(7) != 0 {
		t.Fatalf("Assign sparse←dense wrong: %v", y)
	}
}

// TestAssignIntoUsedClockIsClone: Assign into a clock that already carried
// another value, in either representation, leaves it indistinguishable from
// a Clone of the source, including the span that decides its next
// promotion.
func TestAssignIntoUsedClockIsClone(t *testing.T) {
	var st Stats
	based := NewSparse(&st)
	other := NewSparse(&st)
	for i := TID(0); i < 16; i++ {
		based.Set(i, Time(i)+1)
		other.Set(i, 1)
	}
	collapse(nil, []*VC{based, other})
	based.Set(3, 40)
	baseless := NewSparse(&st)
	baseless.Set(2, 5)
	baseless.Set(60, 1)
	dense := NewSparse(&st)
	for i := TID(0); i < 8; i++ {
		dense.Set(i, 2)
	}
	srcs := map[string]*VC{"based": based, "baseless": baseless, "dense": dense}
	for sname, src := range srcs {
		for dname, used := range srcs {
			dst := used.Clone()
			dst.Assign(src)
			want := src.Clone()
			for i := TID(0); i < 8; i++ {
				// The same sets from here on promote both or neither.
				dst.Set(100+i, 7)
				want.Set(100+i, 7)
				if dst.Sparse() != want.Sparse() || dst.Len() != want.Len() ||
					dst.BaseGen() != want.BaseGen() || dst.String() != want.String() {
					t.Fatalf("%s into used %s, set %d: %v (sparse %v), Clone gives %v (sparse %v)",
						sname, dname, i, dst, dst.Sparse(), want, want.Sparse())
				}
			}
		}
	}
}

// TestRecycledClockKeepsItsArrays: a clock that promotes to dense and is
// then cleared or assigned a sparse value reuses the entry array the
// promotion set aside, so recycling it allocates nothing once warm.
func TestRecycledClockKeepsItsArrays(t *testing.T) {
	var st Stats
	src := NewSparse(&st)
	src.Set(1, 3)
	src.Set(6, 2)
	v := NewSparse(&st)
	cycle := func() {
		for i := TID(0); i < 8; i++ {
			v.Set(i, 1)
		}
		if v.Sparse() {
			t.Fatal("setup: expected promotion")
		}
		v.Clear(8)
		for i := TID(0); i < 8; i++ {
			v.Set(i, 1)
		}
		v.Assign(src)
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("promote/Clear/Assign cycle allocates %.1f objects, want 0", n)
	}
}

// FuzzVCJoinEquivalence drives three representations — dense, pure sparse
// (never collapsed), and delta (sparse with periodic collapse rounds) —
// through one randomized op sequence and asserts they agree on
// Get/Join/Tick/Compare at every step.
func FuzzVCJoinEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{2, 200, 40, 2, 201, 41, 3, 3, 3, 5, 0, 1})
	f.Add([]byte{1, 1, 1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 0, 0, 0, 6, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nclocks = 4
		const span = 48
		var stS, stD Stats
		dense := make([]*VC, nclocks)
		pure := make([]*VC, nclocks)
		delta := make([]*VC, nclocks)
		ms := make([]model, nclocks)
		for i := range dense {
			dense[i] = New(0)
			pure[i] = NewSparse(&stS)
			delta[i] = NewSparse(&stD)
			ms[i] = model{}
		}
		var base *Base
		next := func(k int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % k
		}
		steps := 0
		for len(data) > 0 && steps < 300 {
			steps++
			op := next(6)
			c := next(nclocks)
			switch op {
			case 0, 1: // tick
				tid := TID(next(span))
				dense[c].Tick(tid)
				pure[c].Tick(tid)
				delta[c].Tick(tid)
				ms[c].set(tid, ms[c][tid]+1)
			case 2: // set
				tid := TID(next(span))
				val := Time(next(16))
				dense[c].Set(tid, val)
				pure[c].Set(tid, val)
				delta[c].Set(tid, val)
				ms[c].set(tid, val)
			case 3: // join
				o := next(nclocks)
				if o == c {
					o = (o + 1) % nclocks
				}
				dense[c].Join(dense[o])
				pure[c].Join(pure[o])
				delta[c].Join(delta[o])
				ms[c].join(ms[o])
			case 4: // collapse round over the delta world only
				base = collapse(base, delta)
			case 5: // join-all into c from everyone else
				var ds, ps, dl []*VC
				for i := range dense {
					if i == c {
						continue
					}
					ds = append(ds, dense[i])
					ps = append(ps, pure[i])
					dl = append(dl, delta[i])
					ms[c].join(ms[i])
				}
				JoinAll(dense[c], ds)
				JoinAll(pure[c], ps)
				JoinAll(delta[c], dl)
			}
			checkAgainstModel(t, fmt.Sprintf("dense clock %d (step %d)", c, steps), dense[c], ms[c], span+4)
			checkAgainstModel(t, fmt.Sprintf("pure-sparse clock %d (step %d)", c, steps), pure[c], ms[c], span+4)
			checkAgainstModel(t, fmt.Sprintf("delta clock %d (step %d)", c, steps), delta[c], ms[c], span+4)
		}
		// Pairwise ordering must agree across representations at the end.
		for i := 0; i < nclocks; i++ {
			for j := 0; j < nclocks; j++ {
				dl := dense[i].Leq(dense[j])
				pl := pure[i].Leq(pure[j])
				ll := delta[i].Leq(delta[j])
				if dl != pl || dl != ll {
					t.Fatalf("Leq(%d,%d) disagrees: dense=%v pure=%v delta=%v", i, j, dl, pl, ll)
				}
			}
		}
	})
}
