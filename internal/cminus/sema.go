package cminus

// Semantic analysis: resolves every identifier to a symbol, checks call
// arity (including the builtins), validates break/continue placement and
// switch-case uniqueness, bounds the data memory, lists the switch
// statements, and assigns local-variable slots that lowering maps onto
// virtual registers.

// MaxDataWords bounds a program's data memory, the words its globals take
// together. Lowering allocates every word at compile time and the
// machines again on every run; the roster's largest program takes 25,602.
const MaxDataWords = 1 << 24

// SymKind classifies resolved symbols.
type SymKind int

const (
	SymLocal SymKind = iota // function-local scalar (includes parameters)
	SymGlobal
)

// Symbol is the resolution of a scalar identifier.
type Symbol struct {
	Kind   SymKind
	Slot   int         // local slot index (SymLocal)
	Global *GlobalDecl // SymGlobal
}

// Builtin identifies a built-in function.
type Builtin int

const (
	NotBuiltin Builtin = iota
	BuiltinGetChar
	BuiltinPutChar
	BuiltinPutInt
)

var builtinArity = map[string]struct {
	b Builtin
	n int
}{
	"getchar": {BuiltinGetChar, 0},
	"putchar": {BuiltinPutChar, 1},
	"putint":  {BuiltinPutInt, 1},
}

// CallTarget is the resolution of a call expression.
type CallTarget struct {
	Builtin Builtin
	Func    *FuncDecl // user function when Builtin == NotBuiltin
}

// Info carries the results of semantic analysis, keyed by AST node.
type Info struct {
	File      *File
	Uses      map[*Ident]Symbol
	ArrayUses map[*IndexExpr]*GlobalDecl
	Calls     map[*CallExpr]CallTarget
	NumLocals map[*FuncDecl]int
	DeclSlots map[*DeclStmt][]int // slot per declared name
	ParamSlot map[*FuncDecl][]int // slot per parameter
	Switches  []*SwitchStmt       // every switch, in source order
}

type checker struct {
	info    *Info
	globals map[string]*GlobalDecl
	funcs   map[string]*FuncDecl

	fn        *FuncDecl
	scopes    []map[string]int // name -> slot
	nextSlot  int
	loopDepth int
	swDepth   int
}

// Check runs semantic analysis over a parsed file.
func Check(f *File) (*Info, error) {
	c := &checker{
		info: &Info{
			File:      f,
			Uses:      map[*Ident]Symbol{},
			ArrayUses: map[*IndexExpr]*GlobalDecl{},
			Calls:     map[*CallExpr]CallTarget{},
			NumLocals: map[*FuncDecl]int{},
			DeclSlots: map[*DeclStmt][]int{},
			ParamSlot: map[*FuncDecl][]int{},
		},
		globals: map[string]*GlobalDecl{},
		funcs:   map[string]*FuncDecl{},
	}
	var words int64
	for _, g := range f.Globals {
		if g.Name == "EOF" {
			return nil, errf(g.Pos, "cannot redeclare predefined constant EOF")
		}
		if _, dup := c.globals[g.Name]; dup {
			return nil, errf(g.Pos, "duplicate global %s", g.Name)
		}
		if g.Size > MaxDataWords-words {
			return nil, errf(g.Pos, "global %s takes the data memory past its bound of %d words", g.Name, MaxDataWords)
		}
		words += g.Size
		c.globals[g.Name] = g
	}
	for _, fn := range f.Funcs {
		if _, isBuiltin := builtinArity[fn.Name]; isBuiltin {
			return nil, errf(fn.Pos, "cannot redefine builtin %s", fn.Name)
		}
		if _, dup := c.funcs[fn.Name]; dup {
			return nil, errf(fn.Pos, "duplicate function %s", fn.Name)
		}
		if _, clash := c.globals[fn.Name]; clash {
			return nil, errf(fn.Pos, "function %s collides with a global", fn.Name)
		}
		c.funcs[fn.Name] = fn
	}
	for _, fn := range f.Funcs {
		if err := c.checkFunc(fn); err != nil {
			return nil, err
		}
	}
	return c.info, nil
}

func (c *checker) checkFunc(fn *FuncDecl) error {
	c.fn = fn
	c.nextSlot = 0
	c.loopDepth = 0
	c.swDepth = 0
	c.scopes = []map[string]int{{}}
	var paramSlots []int
	for _, p := range fn.Params {
		if _, dup := c.scopes[0][p]; dup {
			return errf(fn.Pos, "duplicate parameter %s", p)
		}
		c.scopes[0][p] = c.nextSlot
		paramSlots = append(paramSlots, c.nextSlot)
		c.nextSlot++
	}
	c.info.ParamSlot[fn] = paramSlots
	if err := c.stmt(fn.Body); err != nil {
		return err
	}
	c.info.NumLocals[fn] = c.nextSlot
	return nil
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]int{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(pos Pos, name string) (int, error) {
	if name == "EOF" {
		return 0, errf(pos, "cannot redeclare predefined constant EOF")
	}
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return 0, errf(pos, "duplicate declaration of %s in this scope", name)
	}
	slot := c.nextSlot
	c.nextSlot++
	top[name] = slot
	return slot, nil
}

func (c *checker) lookup(name string) (Symbol, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if slot, ok := c.scopes[i][name]; ok {
			return Symbol{Kind: SymLocal, Slot: slot}, true
		}
	}
	if g, ok := c.globals[name]; ok {
		return Symbol{Kind: SymGlobal, Global: g}, true
	}
	return Symbol{}, false
}

func (c *checker) stmt(s Stmt) error {
	switch s := s.(type) {
	case *BlockStmt:
		c.pushScope()
		defer c.popScope()
		for _, sub := range s.Stmts {
			if err := c.stmt(sub); err != nil {
				return err
			}
		}
		return nil
	case *DeclStmt:
		slots := make([]int, len(s.Names))
		for i, name := range s.Names {
			if s.Inits[i] != nil {
				// The initializer is evaluated before the name is in
				// scope (so "int x = x;" refers to an outer x, as in C
				// the declaration would shadow — we keep the simpler,
				// stricter rule).
				if err := c.expr(s.Inits[i]); err != nil {
					return err
				}
			}
			slot, err := c.declare(s.Pos, name)
			if err != nil {
				return err
			}
			slots[i] = slot
		}
		c.info.DeclSlots[s] = slots
		return nil
	case *ExprStmt:
		return c.expr(s.X)
	case *IfStmt:
		if err := c.expr(s.Cond); err != nil {
			return err
		}
		if err := c.stmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.stmt(s.Else)
		}
		return nil
	case *WhileStmt:
		if err := c.expr(s.Cond); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.stmt(s.Body)
	case *DoWhileStmt:
		c.loopDepth++
		if err := c.stmt(s.Body); err != nil {
			c.loopDepth--
			return err
		}
		c.loopDepth--
		return c.expr(s.Cond)
	case *ForStmt:
		if s.Init != nil {
			if err := c.expr(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := c.expr(s.Cond); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if err := c.expr(s.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.stmt(s.Body)
	case *SwitchStmt:
		if err := c.expr(s.Tag); err != nil {
			return err
		}
		c.info.Switches = append(c.info.Switches, s)
		seen := map[int64]bool{}
		hasDefault := false
		c.swDepth++
		defer func() { c.swDepth-- }()
		c.pushScope()
		defer c.popScope()
		for _, cs := range s.Cases {
			if cs.IsDefault {
				if hasDefault {
					return errf(cs.Pos, "duplicate default case")
				}
				hasDefault = true
			} else {
				if seen[cs.Value] {
					return errf(cs.Pos, "duplicate case value %d", cs.Value)
				}
				seen[cs.Value] = true
			}
			for _, sub := range cs.Body {
				if err := c.stmt(sub); err != nil {
					return err
				}
			}
		}
		return nil
	case *BreakStmt:
		if c.loopDepth == 0 && c.swDepth == 0 {
			return errf(s.Pos, "break outside loop or switch")
		}
		return nil
	case *ContinueStmt:
		if c.loopDepth == 0 {
			return errf(s.Pos, "continue outside loop")
		}
		return nil
	case *ReturnStmt:
		if s.X != nil {
			return c.expr(s.X)
		}
		return nil
	case *EmptyStmt:
		return nil
	default:
		return errf(Pos{}, "unknown statement type %T", s)
	}
}

func (c *checker) expr(e Expr) error {
	switch e := e.(type) {
	case *IntLit:
		return nil
	case *Ident:
		sym, ok := c.lookup(e.Name)
		if !ok {
			return errf(e.Pos, "undefined identifier %s", e.Name)
		}
		if sym.Kind == SymGlobal && sym.Global.IsArray {
			return errf(e.Pos, "array %s used without an index", e.Name)
		}
		c.info.Uses[e] = sym
		return nil
	case *IndexExpr:
		g, ok := c.globals[e.Arr]
		if !ok {
			return errf(e.Pos, "undefined array %s", e.Arr)
		}
		if !g.IsArray {
			return errf(e.Pos, "%s is not an array", e.Arr)
		}
		c.info.ArrayUses[e] = g
		return c.expr(e.Index)
	case *CallExpr:
		if b, ok := builtinArity[e.Callee]; ok {
			if len(e.Args) != b.n {
				return errf(e.Pos, "%s takes %d argument(s), got %d", e.Callee, b.n, len(e.Args))
			}
			c.info.Calls[e] = CallTarget{Builtin: b.b}
		} else {
			fn, ok := c.funcs[e.Callee]
			if !ok {
				return errf(e.Pos, "undefined function %s", e.Callee)
			}
			if len(e.Args) != len(fn.Params) {
				return errf(e.Pos, "%s takes %d argument(s), got %d", e.Callee, len(fn.Params), len(e.Args))
			}
			c.info.Calls[e] = CallTarget{Func: fn}
		}
		for _, a := range e.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		return nil
	case *UnaryExpr:
		return c.expr(e.X)
	case *BinaryExpr:
		if err := c.expr(e.L); err != nil {
			return err
		}
		return c.expr(e.R)
	case *AssignExpr:
		if err := c.expr(e.LHS); err != nil {
			return err
		}
		return c.expr(e.RHS)
	case *IncDecExpr:
		return c.expr(e.X)
	case *CondExpr:
		if err := c.expr(e.Cond); err != nil {
			return err
		}
		if err := c.expr(e.Then); err != nil {
			return err
		}
		return c.expr(e.Else)
	default:
		return errf(e.Position(), "unknown expression type %T", e)
	}
}
