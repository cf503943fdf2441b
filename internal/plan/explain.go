package plan

import (
	"fmt"
	"strings"

	"datacell/internal/sql"
)

// Explain renders a human-readable plan description for a statement
// against the catalog: which baskets gate the firing (with thresholds),
// which are locked read-only, where results go, and the operator pipeline
// of each select block. It performs the same analysis as Compile without
// creating baskets or factories.
func Explain(cat *Catalog, stmt sql.Statement, name string) (string, error) {
	var b strings.Builder
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		if !s.IsContinuous() {
			fmt.Fprintf(&b, "one-time query %s\n", name)
			explainSelect(&b, s, 1)
			return b.String(), nil
		}
		fmt.Fprintf(&b, "continuous query %s -> %s_out\n", name, strings.ToLower(name))
		explainFiring(&b, cat, s)
		explainSelect(&b, s, 1)
	case *sql.InsertStmt:
		fmt.Fprintf(&b, "insert into %s (continuous: %v)\n", s.Target, s.Query.IsContinuous())
		if s.Query.IsContinuous() {
			explainFiring(&b, cat, s.Query)
		}
		explainSelect(&b, s.Query, 1)
	case *sql.WithBlock:
		fmt.Fprintf(&b, "with-block %s binding %q\n", name, s.Alias)
		explainFiring(&b, cat, s.Basket)
		fmt.Fprintf(&b, "  bind %s := basket expression\n", s.Alias)
		explainSelect(&b, s.Basket, 2)
		for _, st := range s.Body {
			switch t := st.(type) {
			case *sql.InsertStmt:
				fmt.Fprintf(&b, "  insert into %s\n", t.Target)
				explainSelect(&b, t.Query, 2)
			case *sql.SetStmt:
				fmt.Fprintf(&b, "  set %s = %s\n", t.Name, t.Value)
			}
		}
	case *sql.CreateStmt:
		fmt.Fprintf(&b, "create %s %s (%d columns)\n", s.Kind, s.Name, len(s.Cols))
	case *sql.DeclareStmt:
		fmt.Fprintf(&b, "declare %s %s\n", s.Name, s.Type)
	case *sql.SetStmt:
		fmt.Fprintf(&b, "set %s = %s\n", s.Name, s.Value)
	default:
		return "", fmt.Errorf("plan: cannot explain %T", stmt)
	}
	return b.String(), nil
}

func explainFiring(b *strings.Builder, cat *Catalog, s *sql.SelectStmt) {
	inputs, thresholds := consumedInputsIn(cat, s, len(s.From) == 0)
	if len(inputs) == 0 {
		inputs, thresholds = consumedInputsIn(cat, s, true)
	}
	for i, in := range inputs {
		fmt.Fprintf(b, "  fires on %s", in.Name())
		if thresholds[i] > 1 {
			fmt.Fprintf(b, " (threshold %d tuples)", thresholds[i])
		}
		b.WriteByte('\n')
	}
	for _, lo := range lockOnlyBaskets(cat, s, inputs) {
		fmt.Fprintf(b, "  locks %s (read-only)\n", lo.Name())
	}
	if len(inputs) == 1 {
		fmt.Fprintf(b, "  stream-scan artifact: single consumed stream %s (eligible for basket sharing)\n", inputs[0].Name())
		v := partitionVerdict(cat, s, inputs[0].Name())
		switch v.Mode {
		case PartRoundRobin:
			b.WriteString("  partitionable: round-robin (row-local predicate window)\n")
		case PartHash:
			fmt.Fprintf(b, "  partitionable: hash(%s) (grouped plan, keys co-locate)\n", v.Col)
			if col, set, ok := v.Prune(); ok {
				fmt.Fprintf(b, "  prune: %s in %s (non-matching tuples divert to the catch-all before aggregation)\n", col, set)
			}
		case PartRange:
			fmt.Fprintf(b, "  partitionable: range(%s in %s) (sargable predicate; non-matching tuples prune to the catch-all)\n",
				v.Col, v.Set())
		default:
			b.WriteString("  partitionable: no (plan must see the whole stream)\n")
		}
		switch tp := combineSpec(cat, s, inputs[0].Name(), v); {
		case tp != nil && tp.aggregated:
			b.WriteString("  two-phase: partial aggregate per partition + combining merge (re-group, fold partial states)\n")
		case tp != nil:
			b.WriteString("  two-phase: partial sort per partition + k-way combining merge\n")
		case v.Mode == PartHash:
			b.WriteString("  concatenating merge: each group lives on one partition, so per-partition groups are final\n")
		}
	}
}

func explainSelect(b *strings.Builder, s *sql.SelectStmt, depth int) {
	pad := strings.Repeat("  ", depth)
	for i := range s.From {
		tr := &s.From[i]
		switch {
		case tr.Basket != nil:
			fmt.Fprintf(b, "%sbasket-scan [%s] as %s (consuming)\n", pad, describeScan(tr.Basket), tr.Alias)
			if tr.Basket.Where != nil {
				fmt.Fprintf(b, "%s  predicate window: %s\n", pad, tr.Basket.Where)
			}
			if tr.Basket.Top >= 0 {
				fmt.Fprintf(b, "%s  window: top %d", pad, tr.Basket.Top)
				if len(tr.Basket.OrderBy) > 0 {
					fmt.Fprintf(b, " order by %s", tr.Basket.OrderBy[0].Expr)
				}
				b.WriteByte('\n')
			}
		case tr.Sub != nil:
			fmt.Fprintf(b, "%sderived table %s\n", pad, tr.Alias)
			explainSelect(b, tr.Sub, depth+1)
		default:
			fmt.Fprintf(b, "%sscan %s as %s\n", pad, tr.Name, tr.Alias)
		}
	}
	if len(s.From) > 1 {
		fmt.Fprintf(b, "%sjoin %d sources\n", pad, len(s.From))
	}
	if s.Where != nil {
		fmt.Fprintf(b, "%sfilter: %s\n", pad, s.Where)
	}
	agg := len(s.GroupBy) > 0
	for _, it := range s.Items {
		if it.Agg != nil {
			agg = true
		}
	}
	if agg {
		fmt.Fprintf(b, "%saggregate (%d group keys, %d items)\n", pad, len(s.GroupBy), len(s.Items))
	} else {
		fmt.Fprintf(b, "%sproject %d items\n", pad, len(s.Items))
	}
	if s.Having != nil {
		fmt.Fprintf(b, "%shaving: %s\n", pad, s.Having)
	}
	if s.Distinct {
		fmt.Fprintf(b, "%sdistinct\n", pad)
	}
	if s.Union != nil {
		op := "union"
		if s.UnionAll {
			op = "union all"
		}
		fmt.Fprintf(b, "%s%s\n", pad, op)
		explainSelect(b, s.Union, depth+1)
	}
	if len(s.OrderBy) > 0 {
		keys := make([]string, len(s.OrderBy))
		for i, oi := range s.OrderBy {
			keys[i] = oi.Expr.String()
			if oi.Desc {
				keys[i] += " desc"
			}
		}
		fmt.Fprintf(b, "%sorder by %s\n", pad, strings.Join(keys, ", "))
	}
	if s.Top >= 0 {
		fmt.Fprintf(b, "%stop %d\n", pad, s.Top)
	}
}

func describeScan(s *sql.SelectStmt) string {
	names := make([]string, 0, len(s.From))
	for i := range s.From {
		if s.From[i].Name != "" {
			names = append(names, s.From[i].Name)
		} else {
			names = append(names, "(nested)")
		}
	}
	return strings.Join(names, ", ")
}
