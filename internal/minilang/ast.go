package minilang

// NodeID uniquely identifies an AST node within one parsed Program.
// PSG construction uses NodeIDs to map retained graph vertices back to the
// syntax that produced them, and the interpreter uses the same IDs to find
// the PSG vertex for the code it is currently executing.
type NodeID int

// Node is the interface implemented by every AST node.
type Node interface {
	Pos() Pos
	ID() NodeID
}

type base struct {
	pos Pos
	id  NodeID
}

func (b base) Pos() Pos   { return b.pos }
func (b base) ID() NodeID { return b.id }

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// NumLit is a numeric literal.
type NumLit struct {
	base
	Value float64
}

// StrLit is a string literal (only valid as an argument to print).
type StrLit struct {
	base
	Value string
}

// VarRef references a variable by name.
type VarRef struct {
	base
	Name string
}

// IndexExpr reads one element of an array variable: name[idx].
type IndexExpr struct {
	base
	Name string
	Idx  Expr
}

// FuncRefExpr takes the address of a function: &name. The resulting value
// may be stored in a variable and invoked later, producing an indirect call
// that static analysis cannot resolve (paper §III-B3).
type FuncRefExpr struct {
	base
	Name string
}

// BinaryExpr is a binary operation. Op is the operator token kind.
type BinaryExpr struct {
	base
	Op   TokKind
	L, R Expr
}

// UnaryExpr is -x or !x.
type UnaryExpr struct {
	base
	Op TokKind
	X  Expr
}

// CallExpr calls a function or builtin by name. If the name resolves to a
// variable holding a function reference, the call is indirect.
type CallExpr struct {
	base
	Name string
	Args []Expr

	// Filled in by the checker:
	Builtin  *Builtin // non-nil if this is a builtin call
	Indirect bool     // true if Name is a variable holding a func ref
}

// VarDecl declares a local variable with an initializer.
type VarDecl struct {
	base
	Name string
	Init Expr
}

// AssignStmt assigns to a variable or array element.
type AssignStmt struct {
	base
	Name string
	Idx  Expr // non-nil for array element assignment
	Val  Expr
}

// IfStmt is a conditional with an optional else block.
type IfStmt struct {
	base
	Cond Expr
	Then *Block
	Else *Block // nil if absent
}

// ForStmt is a C-style counted loop.
type ForStmt struct {
	base
	Init Stmt // nil or VarDecl/AssignStmt
	Cond Expr // nil means always true
	Post Stmt // nil or AssignStmt
	Body *Block
}

// WhileStmt loops while the condition is true.
type WhileStmt struct {
	base
	Cond Expr
	Body *Block
}

// ReturnStmt returns from the current function.
type ReturnStmt struct {
	base
	Value Expr // nil for bare return
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ base }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ base }

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	base
	X Expr
}

// Block is a brace-delimited statement list.
type Block struct {
	base
	Stmts []Stmt
}

// FuncDecl declares a function.
type FuncDecl struct {
	base
	Name   string
	Params []string
	Body   *Block
}

// Program is a parsed MiniMP compilation unit.
type Program struct {
	File   string
	Funcs  []*FuncDecl
	Source string // original source text, kept for the viewer
	// AddressTaken holds the sorted, distinct names of the functions
	// whose address is taken (&name) anywhere in the program: the only
	// possible targets of an indirect call. Check fills it.
	AddressTaken []string

	byName map[string]*FuncDecl
	nodes  int // total number of AST nodes allocated
}

// Nodes returns how many AST nodes the parser made. It numbers them from
// 1 in source order, so a function's nodes are the IDs from its own up to
// the next function's, and the last function's run to Nodes.
func (p *Program) Nodes() int { return p.nodes }

// Func returns the function declared with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	return p.byName[name]
}

// SourceLine returns the 1-based line of the program source, or "" if out
// of range. The viewer uses it to show code snippets for root causes.
func (p *Program) SourceLine(line int) string {
	if line < 1 {
		return ""
	}
	cur := 1
	start := 0
	for i := 0; i < len(p.Source); i++ {
		if cur == line {
			start = i
			for j := i; j < len(p.Source); j++ {
				if p.Source[j] == '\n' {
					return p.Source[start:j]
				}
			}
			return p.Source[start:]
		}
		if p.Source[i] == '\n' {
			cur++
		}
	}
	return ""
}

func (*NumLit) exprNode()      {}
func (*StrLit) exprNode()      {}
func (*VarRef) exprNode()      {}
func (*IndexExpr) exprNode()   {}
func (*FuncRefExpr) exprNode() {}
func (*BinaryExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*CallExpr) exprNode()    {}

func (*VarDecl) stmtNode()      {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ExprStmt) stmtNode()     {}
func (*Block) stmtNode()        {}
