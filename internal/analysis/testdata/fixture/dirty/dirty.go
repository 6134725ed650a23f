// Package dirty seeds one finding per concurrency analyzer plus a
// directive-grammar violation; the driver integration test asserts these
// exactly, including positions and the suppression count.
package dirty

import "sync"

var mu sync.Mutex

// doubleLock seeds a lockorder self-deadlock.
func doubleLock() {
	mu.Lock()
	mu.Lock()
	mu.Unlock()
	mu.Unlock()
}

// leak seeds a goroscope unowned goroutine.
func leak(ch chan int) {
	go func() {
		ch <- 1
	}()
}

// allowedLeak is the same leak, suppressed: it must count as suppressed,
// not reported.
func allowedLeak(ch chan int) {
	//chrono:allow goroscope fixture demonstrates an acknowledged fire-and-forget
	go func() {
		ch <- 1
	}()
}

// typo seeds a directive-grammar violation: the directive name below is
// misspelled, so the suppression would silently match nothing.
//
//chrono:alow lockorder oops
func typo() {}

// ghost seeds the other directive-grammar violation: the directive is
// well-formed but names an analyzer that does not exist, so the
// suppression would silently match nothing.
//
//chrono:allow lockordering suppressing a rule that is not registered
func ghost() {}

// leakAgain duplicates leak's finding exactly — same rule, file, and
// message — so the driver must assign it a distinct fingerprint or code
// scanning would fold the two alerts into one.
func leakAgain(ch chan int) {
	go func() {
		ch <- 1
	}()
}
