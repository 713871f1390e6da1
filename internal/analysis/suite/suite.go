// Package suite registers the repo's analyzers in a stable order. It is
// the single list cmd/msf-lint, the CI job and the smoke test all run.
package suite

import (
	"pmsf/internal/analysis"
	"pmsf/internal/analysis/arenaescape"
	"pmsf/internal/analysis/atomicpack"
	"pmsf/internal/analysis/atomicslice"
	"pmsf/internal/analysis/ctxdone"
	"pmsf/internal/analysis/errflow"
	"pmsf/internal/analysis/lockhold"
	"pmsf/internal/analysis/noalloc"
	"pmsf/internal/analysis/onceresp"
	"pmsf/internal/analysis/spanpairing"
	"pmsf/internal/analysis/teamlifecycle"
)

// All returns every analyzer of the msf-lint suite.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		arenaescape.Analyzer,
		atomicpack.Analyzer,
		atomicslice.Analyzer,
		ctxdone.Analyzer,
		errflow.Analyzer,
		lockhold.Analyzer,
		noalloc.Analyzer,
		onceresp.Analyzer,
		spanpairing.Analyzer,
		teamlifecycle.Analyzer,
	}
}
