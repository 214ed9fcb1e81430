package repro

import (
	"repro/internal/adapt"
	"repro/internal/storage"
)

// AutoTunePolicy configures the online adaptation controller; zero
// fields take sensible defaults (window 64, miss rate 0.7, bucket width
// 1000, top 4 regions). See internal/adapt for the control loop.
type AutoTunePolicy = adapt.Policy

// AutoTuner pairs a column's partial index with an adaptation
// controller: queries routed through it are monitored, and a sustained
// workload shift redefines the index — the slow disk-side loop that the
// column's Index Buffer bridges in the meantime. This is the paper's
// complete "self-tuned adaptive partial indexing" stack (§VII).
type AutoTuner struct {
	table *Table
	ctrl  *adapt.Controller
}

// AutoTune attaches an adaptation controller to the column, which must
// already carry a partial index.
func (t *Table) AutoTune(column string, p AutoTunePolicy) (*AutoTuner, error) {
	i, err := t.columnIndex(column)
	if err != nil {
		return nil, err
	}
	ctrl, err := adapt.New(t.t, i, p)
	if err != nil {
		return nil, err
	}
	return &AutoTuner{table: t, ctrl: ctrl}, nil
}

// Query answers column = key, feeds the observation to the controller,
// and reports whether this query triggered an index redefinition.
func (a *AutoTuner) Query(key any) (rows []Row, stats QueryStats, adapted bool, err error) {
	kv, err := toValue(key)
	if err != nil {
		return nil, QueryStats{}, false, err
	}
	matches, stats, adapted, err := a.ctrl.Query(kv)
	if err != nil {
		return nil, stats, false, err
	}
	rows = make([]Row, len(matches))
	for j, m := range matches {
		vals := make([]storage.Value, a.table.schema.NumColumns())
		for c := range vals {
			vals[c] = m.Tuple.Value(c)
		}
		rows[j] = Row{RID: m.RID, values: vals, schema: a.table.schema}
	}
	return rows, stats, adapted, nil
}

// Adaptations returns how many times the controller has redefined the
// index.
func (a *AutoTuner) Adaptations() int { return int(a.ctrl.Stats().Adaptations) }
