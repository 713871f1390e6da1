// Package a exercises the teamlifecycle analyzer: leaked teams,
// use-after-Close, and nested phase dispatch (which deadlocks because
// the workers serving the outer phase cannot run the inner one).
package a

import "pmsf/internal/par"

func leak(p int) {
	t := par.NewTeam(p) // want "never closed"
	t.Run(func(w int) {})
}

func closedDeferred(p int) {
	t := par.NewTeam(p)
	defer t.Close()
	t.Run(func(w int) {})
}

type holder struct{ team *par.Team }

func escape(p int) *holder {
	t := par.NewTeam(p) // ok: ownership moves to the holder
	return &holder{team: t}
}

func useAfterClose(p int) {
	t := par.NewTeam(p)
	t.Run(func(w int) {})
	t.Close()
	t.Run(func(w int) {}) // want "called after t.Close"
	t.Close()             // ok: Close is idempotent
}

func nested(p, n int) {
	t := par.NewTeam(p)
	defer t.Close()
	t.Run(func(w int) {
		t.ForDynamic(n, 64, func(_, lo, hi int) {}) // want "deadlocks"
	})
}

func nestedPack(p, n int) {
	t := par.NewTeam(p)
	defer t.Close()
	t.For(n, func(_, lo, hi int) {
		_ = t.PackIndices(hi-lo, func(i int) bool { return i%2 == 0 }) // want "Team.PackIndices inside a phase body passed to Team.For deadlocks"
	})
}

func suppressed(p int) {
	t := par.NewTeam(p) //msf:ignore teamlifecycle closed by the caller through a finalizer in this fixture
	t.Run(func(w int) {})
}

func closedOnOneBranch(p int, cond bool) {
	t := par.NewTeam(p) // want "never closed"
	t.Run(func(w int) {})
	if cond {
		t.Close()
	}
}

func useAfterBranchClose(p int, cond bool) {
	t := par.NewTeam(p)
	if cond {
		t.Close()
	}
	t.Run(func(w int) {}) // want "called after t.Close"
	t.Close()
}
