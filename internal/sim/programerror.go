package sim

import (
	"fmt"
	"strings"
)

// ProgramError reports a malformed IR program detected during execution:
// an unlock of an unowned mutex, a read- or write-unlock without the hold,
// a cond-wait without the protecting mutex. It carries enough context to
// pinpoint the offending instruction, and Engine.Run returns it as an
// ordinary error, so a CLI can print one line and exit non-zero instead of
// crashing with a Go panic.
type ProgramError struct {
	// Thread is the executing thread's id.
	Thread int
	// PC is the program counter within the thread's innermost frame at the
	// offending instruction (-1 if the thread had no frame).
	PC int
	// Op names the offending operation ("unlock", "read-unlock", ...).
	Op string
	// Object is the sync object the operation named.
	Object SyncID
	// Detail is the one-line diagnostic.
	Detail string
}

func (e *ProgramError) Error() string {
	return fmt.Sprintf("sim: malformed program: t%d pc=%d %s(%d): %s",
		e.Thread, e.PC, e.Op, e.Object, e.Detail)
}

// BlockedThread identifies one thread stuck when the scheduler found no
// runnable thread: its id and the program counter of the blocking
// instruction in its innermost frame (-1 if the thread had no frame).
type BlockedThread struct {
	Thread int
	PC     int
}

// DeadlockError reports that every live thread is blocked — the runtime
// shape of an unmatched join or wait (a Wait or WaitGroup join whose signal
// can never arrive). Like ProgramError it is a structured, ordinary error:
// callers get the offending threads and pcs instead of a crash.
type DeadlockError struct {
	Blocked []BlockedThread // in thread-id order
}

func (e *DeadlockError) Error() string {
	parts := make([]string, len(e.Blocked))
	for i, b := range e.Blocked {
		parts[i] = fmt.Sprintf("t%d@pc=%d", b.Thread, b.PC)
	}
	return fmt.Sprintf("sim: deadlock, blocked threads: [%s]", strings.Join(parts, " "))
}

// programError aborts execution with a ProgramError; Engine.Run recovers it
// and returns it as the run's error.
func (e *Engine) programError(t *Thread, op string, obj SyncID, detail string) {
	pc := -1
	if len(t.frames) > 0 {
		pc = t.frames[len(t.frames)-1].pc
	}
	panic(&ProgramError{Thread: t.ID, PC: pc, Op: op, Object: obj, Detail: detail})
}
