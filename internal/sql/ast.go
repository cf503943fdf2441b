package sql

import (
	"fmt"
	"strings"

	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/relop"
	"datacell/internal/vector"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a (possibly continuous) select query. A query is
// continuous exactly when at least one of its table references — at any
// nesting depth — is a basket expression; that is how the system
// distinguishes continuous from one-time queries.
type SelectStmt struct {
	Distinct bool
	Top      int // TOP n / LIMIT n result-set constraint; -1 if absent
	Items    []SelectItem
	From     []TableRef
	Where    expr.Expr
	GroupBy  []expr.Expr
	Having   expr.Expr
	OrderBy  []OrderItem
	// Union, when non-nil, appends the second branch's rows to this
	// statement's (set semantics unless UnionAll). ORDER BY and TOP on
	// this statement apply to the combined result.
	Union    *SelectStmt
	UnionAll bool
}

func (*SelectStmt) stmt() {}

// IsContinuous reports whether the query contains a basket expression.
func (s *SelectStmt) IsContinuous() bool {
	for _, t := range s.From {
		if t.Basket != nil {
			return true
		}
		if t.Sub != nil && t.Sub.IsContinuous() {
			return true
		}
	}
	return s.Union != nil && s.Union.IsContinuous()
}

// SelectItem is one select-list entry.
type SelectItem struct {
	Star      bool   // * or alias.*
	StarAlias string // qualifier of alias.*; empty for bare *
	Expr      expr.Expr
	Agg       *AggSpec // non-nil for aggregate items
	Alias     string
}

// AggSpec describes an aggregate select item.
type AggSpec struct {
	Kind     relop.AggKind
	Star     bool // count(*) / sum(*)
	Distinct bool // count(distinct x)
	Arg      expr.Expr
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr expr.Expr
	Desc bool
}

// TableRef is a FROM-clause entry: a named basket/table, a basket
// expression (continuous, consuming), or a plain sub-query.
type TableRef struct {
	Name   string      // named basket or table
	Basket *SelectStmt // [select …]: basket expression with delete side-effects
	Sub    *SelectStmt // (select …): ordinary derived table
	Alias  string
}

// InsertStmt is INSERT INTO target [(cols)] select…; the select may itself
// be a bare basket expression, as in the paper's garbage-collection
// example.
type InsertStmt struct {
	Target string
	Cols   []string
	Query  *SelectStmt
}

func (*InsertStmt) stmt() {}

// ColDef declares one column of a basket or table.
type ColDef struct {
	Name string
	Type vector.Type
}

// CreateStmt is CREATE BASKET|STREAM|TABLE name (cols). Baskets and
// streams are synonymous; tables differ only in consumption semantics
// (they are never consumed by basket expressions referencing them
// directly).
type CreateStmt struct {
	Kind string // "basket", "stream" or "table"
	Name string
	Cols []ColDef
}

func (*CreateStmt) stmt() {}

// DeclareStmt declares a session variable.
type DeclareStmt struct {
	Name string
	Type vector.Type
}

func (*DeclareStmt) stmt() {}

// SetStmt assigns a session variable. In a continuous with-block the
// assignment re-runs at every firing (the paper's incremental-aggregate
// idiom).
type SetStmt struct {
	Name  string
	Value expr.Expr
}

func (*SetStmt) stmt() {}

// WithBlock is the DataCell split construct: the basket expression binds
// Alias once per firing and the compound body (inserts and sets) runs
// against that binding.
//
//	with A as [select * from X] begin insert into Y select * from A …; end
type WithBlock struct {
	Alias  string
	Basket *SelectStmt
	Body   []Statement // InsertStmt or SetStmt
}

func (*WithBlock) stmt() {}

// ExplainStmt is the explain surface. `explain <statement>` carries the
// inner statement in Stmt; `explain analyze <query-name>` sets Analyze
// and names the registered query whose live stage timings are wanted.
type ExplainStmt struct {
	Analyze bool
	Query   string    // registered query name (analyze form)
	Stmt    Statement // inner statement (plain form)
}

func (*ExplainStmt) stmt() {}

// SubqueryExpr is a scalar sub-query placeholder inside an expression,
// e.g. set cnt = cnt + (select count(*) from Z). It satisfies expr.Expr so
// it can sit in expression trees; the planner rewrites it before
// evaluation.
type SubqueryExpr struct {
	Sel *SelectStmt
}

// Eval implements expr.Expr; a SubqueryExpr must be rewritten by the
// planner before evaluation.
func (s *SubqueryExpr) Eval(*bat.Relation) (*vector.Vector, error) {
	return nil, fmt.Errorf("sql: unplanned scalar subquery")
}

// EvalInto implements expr.Expr; like Eval, it must never be reached.
func (s *SubqueryExpr) EvalInto(*bat.Relation, *vector.Vector, *expr.Scratch) (*vector.Vector, error) {
	return nil, fmt.Errorf("sql: unplanned scalar subquery")
}

// Type implements expr.Expr.
func (s *SubqueryExpr) Type(*bat.Relation) (vector.Type, error) {
	if len(s.Sel.Items) == 1 && s.Sel.Items[0].Agg != nil {
		switch s.Sel.Items[0].Agg.Kind {
		case relop.AggCount:
			return vector.Int, nil
		case relop.AggAvg:
			return vector.Float, nil
		}
	}
	return vector.Int, nil
}

func (s *SubqueryExpr) String() string { return "(subquery)" }

// statementName returns a short descriptor for error messages.
func statementName(s Statement) string {
	switch s.(type) {
	case *SelectStmt:
		return "select"
	case *InsertStmt:
		return "insert"
	case *CreateStmt:
		return "create"
	case *DeclareStmt:
		return "declare"
	case *SetStmt:
		return "set"
	case *WithBlock:
		return "with"
	case *ExplainStmt:
		return "explain"
	}
	return "statement"
}

var _ = statementName // used by tests and diagnostics

// ItemName derives the output column name of a select item.
func (it SelectItem) ItemName(i int) string {
	if it.Alias != "" {
		return strings.ToLower(it.Alias)
	}
	if it.Agg != nil {
		return it.Agg.Kind.String()
	}
	if c, ok := it.Expr.(*expr.Col); ok {
		name := c.Name
		if k := strings.LastIndexByte(name, '.'); k >= 0 {
			name = name[k+1:]
		}
		return name
	}
	return fmt.Sprintf("col%d", i+1)
}
