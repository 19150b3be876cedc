package sim

import (
	"fmt"

	"repro/internal/memmodel"
)

// The engine compiles each thread body once into a decoded instruction
// stream: a flat []dinstr with an opcode per instruction, the operands the
// interpreter needs pulled out of the IR nodes, and loop bodies decoded
// recursively so a loop push is a slice reference. Synchronization objects
// are interned at decode and looked up by id at execution: the engine's
// sync tables are presized at Run, so the lookup is an inlined index. exec
// then dispatches through a fixed opcode jump table — no interface type
// switch, no per-step allocation. The tree-walk interpreter over the raw IR is kept
// behind Config.RefWalk as the reference semantics; the package's
// differential tests pin the two to identical results.
type opcode uint8

const (
	opAccess opcode = iota
	opAtomic
	opCompute
	opDelay
	opLoop
	opLock
	opUnlock
	opRLock
	opRUnlock
	opWLock
	opWUnlock
	opSignal
	opWait
	opCondWait
	opCondSignal
	opCondBroadcast
	opBarrier
	opSyscall
	opTxBegin
	opTxEnd
	opLoopCheck
	opSpawnAll
	opJoinAll
	opCount
)

// dinstr is one decoded instruction, 120 bytes. Exactly the fields its
// opcode needs are populated; the rest stay zero. ref keeps the original IR
// node because the Runtime hook interface (Access, Atomic, SyscallEvent, the
// Tx/LoopCheck marks) is defined over IR pointers and must not change; for
// opLoop it is the *Loop the frame records.
type dinstr struct {
	op     opcode
	write  bool   // opAccess
	hooked bool   // opAccess
	n      int32  // opBarrier width, opLoop trip count
	cycles int64  // opCompute, opDelay max, opSyscall (SyscallMin pre-applied)
	id     SyncID // sync-object id for hook events
	id2    SyncID // opCondWait: the paired mutex id (id is the condition)

	addr AddrExpr // opAccess, opAtomic

	code []dinstr // opLoop: decoded body
	ref  Instr    // original instruction, handed to Runtime hooks
}

// decodeKey identifies a thread body by its backing storage: two []Instr
// with the same first-element address and length are the same slice, so
// workers sharing one body (the common workload shape) decode once.
type decodeKey struct {
	first *Instr
	n     int
}

func (e *Engine) decodeBody(body []Instr) []dinstr {
	if len(body) == 0 {
		return nil
	}
	k := decodeKey{first: &body[0], n: len(body)}
	if d, ok := e.decodedBodies[k]; ok {
		return d
	}
	d := e.decode(body)
	if e.decodedBodies == nil {
		e.decodedBodies = make(map[decodeKey][]dinstr)
	}
	e.decodedBodies[k] = d
	return d
}

// decode compiles body. Each sync object is interned here, so execution
// never grows a sync table.
func (e *Engine) decode(body []Instr) []dinstr {
	out := make([]dinstr, len(body))
	for i, in := range body {
		d := &out[i]
		d.ref = in
		switch in := in.(type) {
		case *MemAccess:
			d.op = opAccess
			d.write, d.hooked, d.addr = in.Write, in.Hooked, in.Addr
		case *AtomicRMW:
			d.op = opAtomic
			d.addr = in.Addr
		case *Compute:
			d.op = opCompute
			d.cycles = in.Cycles
		case *Delay:
			d.op = opDelay
			d.cycles = in.Max
		case *Loop:
			d.op = opLoop
			d.n = int32(in.Count)
			d.code = e.decode(in.Body)
		case *Lock:
			d.op, d.id = opLock, in.M
			e.mutexOf(in.M)
		case *Unlock:
			d.op, d.id = opUnlock, in.M
			e.mutexOf(in.M)
		case *RLock:
			d.op, d.id = opRLock, in.M
			e.rwlockOf(in.M)
		case *RUnlock:
			d.op, d.id = opRUnlock, in.M
			e.rwlockOf(in.M)
		case *WLock:
			d.op, d.id = opWLock, in.M
			e.rwlockOf(in.M)
		case *WUnlock:
			d.op, d.id = opWUnlock, in.M
			e.rwlockOf(in.M)
		case *Signal:
			d.op, d.id = opSignal, in.C
			e.semOf(in.C)
		case *Wait:
			d.op, d.id = opWait, in.C
			e.semOf(in.C)
		case *CondWait:
			d.op, d.id, d.id2 = opCondWait, in.C, in.M
			e.condOf(in.C)
			e.mutexOf(in.M)
		case *CondSignal:
			d.op, d.id = opCondSignal, in.C
			e.condOf(in.C)
		case *CondBroadcast:
			d.op, d.id = opCondBroadcast, in.C
			e.condOf(in.C)
		case *Barrier:
			d.op, d.id = opBarrier, in.B
			e.barrierOf(in.B)
			d.n = int32(in.N)
		case *Syscall:
			d.op = opSyscall
			d.cycles = in.Cycles
			if d.cycles < e.cfg.Cost.SyscallMin {
				d.cycles = e.cfg.Cost.SyscallMin
			}
		case *TxBegin:
			d.op = opTxBegin
		case *TxEnd:
			d.op = opTxEnd
		case *LoopCheck:
			d.op = opLoopCheck
		case *spawnAll:
			d.op = opSpawnAll
		case *joinAll:
			d.op = opJoinAll
		default:
			panic(fmt.Sprintf("sim: cannot decode instruction %T", in))
		}
		e.decodedInstrs++
	}
	return out
}

// execDecoded is the opcode jump table: a dense switch over op that the
// compiler lowers to an indexed jump, so dispatch is one bounds-checked
// branch instead of the reference interpreter's interface type switch.
// Case bodies mirror exec (engine.go) exactly; the differential tests in
// decode_test.go compare the two step for step.
func (e *Engine) execDecoded(t *Thread, d *dinstr) bool {
	switch d.op {
	case opAccess:
		return execAccess(e, t, d)
	case opAtomic:
		return execAtomic(e, t, d)
	case opCompute:
		return execCompute(e, t, d)
	case opDelay:
		return execDelay(e, t, d)
	case opLoop:
		return execLoop(e, t, d)
	case opLock:
		return execLock(e, t, d)
	case opUnlock:
		return execUnlock(e, t, d)
	case opRLock:
		return execRLock(e, t, d)
	case opRUnlock:
		return execRUnlock(e, t, d)
	case opWLock:
		return execWLock(e, t, d)
	case opWUnlock:
		return execWUnlock(e, t, d)
	case opSignal:
		return execSignal(e, t, d)
	case opWait:
		return execWait(e, t, d)
	case opCondWait:
		return execCondWait(e, t, d)
	case opCondSignal:
		return execCondSignal(e, t, d)
	case opCondBroadcast:
		return execCondBroadcast(e, t, d)
	case opBarrier:
		return execBarrier(e, t, d)
	case opSyscall:
		return execSyscall(e, t, d)
	case opTxBegin:
		return execTxBegin(e, t, d)
	case opTxEnd:
		return execTxEnd(e, t, d)
	case opLoopCheck:
		return execLoopCheck(e, t, d)
	case opSpawnAll:
		return e.execSpawnAll(t)
	default: // opJoinAll
		return e.execJoinAll(t)
	}
}

func execAccess(e *Engine, t *Thread, d *dinstr) bool {
	// Address modes are decoded into the opcode's operands; the common fixed
	// mode skips Eval's mode switch entirely.
	var addr memmodel.Addr
	switch d.addr.Mode {
	case AddrFixed:
		addr = d.addr.Base
	case AddrRandom:
		if d.addr.Range == 0 {
			e.programError(t, "access", 0, "random address with zero range")
		}
		addr = d.addr.Base + memmodel.Addr(t.RNG.Uint64n(d.addr.Range)*memmodel.WordSize)
	default:
		addr = t.Eval(d.addr)
	}
	e.charge(t, e.cfg.Cost.Access)
	e.res.Accesses++
	if d.hooked {
		e.res.HookedAccesses++
	}
	e.rt.Access(t, d.ref.(*MemAccess), addr)
	return true
}

func execAtomic(e *Engine, t *Thread, d *dinstr) bool {
	if d.addr.Mode == AddrRandom && d.addr.Range == 0 {
		e.programError(t, "atomic", 0, "random address with zero range")
	}
	addr := t.Eval(d.addr)
	e.charge(t, e.cfg.Cost.LockOp/2+1)
	e.res.Accesses++
	e.res.SyncOps++
	e.rt.Atomic(t, d.ref.(*AtomicRMW), addr)
	return true
}

func execCompute(e *Engine, t *Thread, d *dinstr) bool {
	e.charge(t, d.cycles)
	return true
}

func execDelay(e *Engine, t *Thread, d *dinstr) bool {
	if d.cycles > 0 {
		e.charge(t, int64(t.RNG.Uint64n(uint64(d.cycles))))
	}
	return true
}

func execLoop(e *Engine, t *Thread, d *dinstr) bool {
	if d.n <= 0 {
		return true
	}
	t.frames = append(t.frames, frame{code: d.code, loop: d.ref.(*Loop)})
	return true
}

func execLock(e *Engine, t *Thread, d *dinstr) bool {
	m := e.mutexOf(d.id)
	if m.owner == nil {
		m.owner = t
		e.charge(t, e.cfg.Cost.LockOp)
		e.res.SyncOps++
		e.rt.SyncAcquire(t, d.id, SyncMutex)
		return true
	}
	m.waiters = append(m.waiters, t)
	e.block(t)
	return false
}

func execUnlock(e *Engine, t *Thread, d *dinstr) bool {
	m := e.mutexOf(d.id)
	if m.owner != t {
		e.programError(t, "unlock", d.id, "unlocks a mutex it does not own")
	}
	m.owner = nil
	e.charge(t, e.cfg.Cost.LockOp)
	e.res.SyncOps++
	e.rt.SyncRelease(t, d.id, SyncMutex)
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		e.wake(w, t.Clock)
	}
	return true
}

func execRLock(e *Engine, t *Thread, d *dinstr) bool {
	l := e.rwlockOf(d.id)
	if l.writer == nil {
		l.readers++
		e.charge(t, e.cfg.Cost.LockOp)
		e.res.SyncOps++
		e.rt.SyncAcquire(t, d.id, SyncRead)
		return true
	}
	l.waiters = append(l.waiters, t)
	e.block(t)
	return false
}

func execRUnlock(e *Engine, t *Thread, d *dinstr) bool {
	l := e.rwlockOf(d.id)
	if l.readers <= 0 {
		e.programError(t, "read-unlock", d.id, "read-unlocks an rwlock it does not hold")
	}
	l.readers--
	e.charge(t, e.cfg.Cost.LockOp)
	e.res.SyncOps++
	e.rt.SyncRelease(t, d.id, SyncRead)
	e.wakeRWWaiters(l, t)
	return true
}

func execWLock(e *Engine, t *Thread, d *dinstr) bool {
	l := e.rwlockOf(d.id)
	if l.writer == nil && l.readers == 0 {
		l.writer = t
		e.charge(t, e.cfg.Cost.LockOp)
		e.res.SyncOps++
		e.rt.SyncAcquire(t, d.id, SyncWrite)
		return true
	}
	l.waiters = append(l.waiters, t)
	e.block(t)
	return false
}

func execWUnlock(e *Engine, t *Thread, d *dinstr) bool {
	l := e.rwlockOf(d.id)
	if l.writer != t {
		e.programError(t, "write-unlock", d.id, "write-unlocks an rwlock it does not own")
	}
	l.writer = nil
	e.charge(t, e.cfg.Cost.LockOp)
	e.res.SyncOps++
	e.rt.SyncRelease(t, d.id, SyncWrite)
	e.wakeRWWaiters(l, t)
	return true
}

func execSignal(e *Engine, t *Thread, d *dinstr) bool {
	s := e.semOf(d.id)
	s.count++
	e.charge(t, e.cfg.Cost.SignalOp)
	e.res.SyncOps++
	e.rt.SyncRelease(t, d.id, SyncSem)
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		e.wake(w, t.Clock)
	}
	return true
}

func execWait(e *Engine, t *Thread, d *dinstr) bool {
	s := e.semOf(d.id)
	if s.count > 0 {
		s.count--
		e.charge(t, e.cfg.Cost.WaitOp)
		e.res.SyncOps++
		e.rt.SyncAcquire(t, d.id, SyncSem)
		return true
	}
	s.waiters = append(s.waiters, t)
	e.block(t)
	return false
}

func execCondWait(e *Engine, t *Thread, d *dinstr) bool {
	cv, m := e.condOf(d.id), e.mutexOf(d.id2)
	if !t.condWaiting {
		if m.owner != t {
			e.programError(t, "cond-wait", d.id2, "cond-waits without holding the mutex")
		}
		t.condWaiting = true
		m.owner = nil
		e.charge(t, e.cfg.Cost.WaitOp)
		e.res.SyncOps++
		e.rt.SyncRelease(t, d.id2, SyncMutex)
		if len(m.waiters) > 0 {
			w := m.waiters[0]
			m.waiters = m.waiters[1:]
			e.wake(w, t.Clock)
		}
		cv.waiters = append(cv.waiters, t)
		e.block(t)
		return false
	}
	if m.owner == nil {
		m.owner = t
		t.condWaiting = false
		e.charge(t, e.cfg.Cost.LockOp)
		e.res.SyncOps++
		e.rt.SyncAcquire(t, d.id, SyncSem)
		e.rt.SyncAcquire(t, d.id2, SyncMutex)
		return true
	}
	m.waiters = append(m.waiters, t)
	e.block(t)
	return false
}

func execCondSignal(e *Engine, t *Thread, d *dinstr) bool {
	cv := e.condOf(d.id)
	e.charge(t, e.cfg.Cost.SignalOp)
	e.res.SyncOps++
	e.rt.SyncRelease(t, d.id, SyncSem)
	if len(cv.waiters) > 0 {
		w := cv.waiters[0]
		cv.waiters = cv.waiters[1:]
		e.wake(w, t.Clock)
	}
	return true
}

func execCondBroadcast(e *Engine, t *Thread, d *dinstr) bool {
	cv := e.condOf(d.id)
	e.charge(t, e.cfg.Cost.SignalOp)
	e.res.SyncOps++
	e.rt.SyncRelease(t, d.id, SyncSem)
	for _, w := range cv.waiters {
		e.wake(w, t.Clock)
	}
	cv.waiters = nil
	return true
}

func execBarrier(e *Engine, t *Thread, d *dinstr) bool {
	if d.n <= 0 {
		e.programError(t, "barrier", d.id, fmt.Sprintf("has non-positive width %d", d.n))
	}
	b := e.barrierOf(d.id)
	if !t.barrierArrived {
		t.barrierArrived = true
		e.charge(t, e.cfg.Cost.BarrierOp)
		e.res.SyncOps++
		e.rt.SyncRelease(t, d.id, SyncBarrier)
		b.arrived = append(b.arrived, t)
		if len(b.arrived) < int(d.n) {
			e.block(t)
			return false
		}
		maxClock := int64(0)
		for _, w := range b.arrived {
			if w.Clock > maxClock {
				maxClock = w.Clock
			}
		}
		for _, w := range b.arrived {
			if w != t {
				e.wake(w, maxClock)
			}
		}
		b.arrived = b.arrived[:0]
	}
	t.barrierArrived = false
	e.res.SyncOps++
	e.rt.SyncAcquire(t, d.id, SyncBarrier)
	return true
}

func execSyscall(e *Engine, t *Thread, d *dinstr) bool {
	e.charge(t, d.cycles) // SyscallMin already applied at decode
	e.res.Syscalls++
	e.rt.SyscallEvent(t, d.ref.(*Syscall))
	return true
}

func execTxBegin(e *Engine, t *Thread, d *dinstr) bool {
	e.rt.TxBeginMark(t, d.ref.(*TxBegin))
	return true
}

func execTxEnd(e *Engine, t *Thread, d *dinstr) bool {
	e.rt.TxEndMark(t, d.ref.(*TxEnd))
	return true
}

func execLoopCheck(e *Engine, t *Thread, d *dinstr) bool {
	e.rt.LoopCheckMark(t, d.ref.(*LoopCheck))
	return true
}
