package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil blocks until t. The runtime's timers wake sub-millisecond
// sleeps up to a millisecond late on an idle process, which would
// swamp the microsecond latencies being measured, so this sleeps in
// nanosleep with the calling thread's timer slack cut to 1µs.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the time
	}
}
