package frontend

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/memmodel"
	"repro/internal/sim"
)

// ctxID numbers thread contexts: 0 is main (Setup plus main's continuation,
// which are ordered by the fork edge), and each spawned goroutine instance
// gets a fresh id. An object touched by two or more contexts is shared.
type ctxID int

// objKey is the pass-stable identity of a data object: the type-checker
// object plus the context whose function body defined it, so locals of two
// unrolled goroutine instances stay distinct objects.
type objKey struct {
	root types.Object
	inst ctxID
}

// skey is the pass-stable identity of a synchronization object.
type skey struct {
	root types.Object
	path string
	inst ctxID
}

// syncObj is one lowered synchronization object.
type syncObj struct {
	id   sim.SyncID
	kind string // "mutex" | "rwmutex" | "wg" | "chan"
	key  skey
}

type siteKey struct {
	pos   token.Pos
	write bool
}

type lowerer struct {
	name   string
	fset   *token.FileSet
	file   *ast.File
	info   *types.Info
	funcs  map[string]*ast.FuncDecl
	mainFn *ast.FuncDecl
	pkgVar []*ast.ValueSpec // package-level var specs in source order

	// analyze is true on pass 1, which runs the same traversal but only
	// records context sets and semaphore post counts.
	analyze bool

	al       *memmodel.Allocator
	objs     map[objKey]*object
	objList  []*object
	syncs    map[skey]*syncObj
	sites    map[siteKey]sim.SiteID
	siteList []Site
	nextSite sim.SiteID
	nextSync sim.SyncID
	nextLoop sim.LoopID

	ctxs        map[objKey]map[ctxID]bool
	sigCount    map[skey]int // pass-1 static Signal count per semaphore
	waitN       map[skey]int // pass-2 input: Waits to emit per wg.Wait
	waitEmitted map[skey]bool
	shared      map[objKey]bool

	setup   []sim.Instr
	cont    []sim.Instr
	workers [][]sim.Instr
	cur     *[]sim.Instr
	nextCtx ctxID
	spawned bool
}

// env is the per-scope lowering environment. Lookup maps are keyed by
// type-checker object identity, so sharing maps across nested scopes is
// safe; parent chains let closures resolve captured locals.
type env struct {
	ctx    ctxID
	inMain bool // go statements are permitted (main's top level)
	parent *env

	locals     map[types.Object]*object
	syncLocals map[types.Object]*syncObj
	consts     map[types.Object]int64 // unroll-time known values

	loops  []loopFrame
	inline []*ast.FuncDecl
	mult   int // static execution multiplier from enclosing counted loops
	defers *[]*ast.CallExpr

	out *[]sim.Instr // nil: emit to the lowerer's setup/continuation cursor
}

type loopFrame struct {
	iv          types.Object
	start, step int64
}

func (e *env) loopDepthOf(obj types.Object) int {
	if obj == nil {
		return -1
	}
	for n := e; n != nil; n = n.parent {
		for i, f := range n.loops {
			if f.iv == obj {
				return len(n.loops) - 1 - i
			}
		}
		if len(n.loops) > 0 {
			// sim loops do not cross function boundaries; stop at the
			// first env that owns loop frames.
			break
		}
	}
	return -1
}

func (e *env) lookupLocal(obj types.Object) (*object, bool) {
	for n := e; n != nil; n = n.parent {
		if o, ok := n.locals[obj]; ok {
			return o, true
		}
	}
	return nil, false
}

func (e *env) lookupSync(obj types.Object) (*syncObj, bool) {
	for n := e; n != nil; n = n.parent {
		if s, ok := n.syncLocals[obj]; ok {
			return s, true
		}
	}
	return nil, false
}

func (e *env) lookupConst(obj types.Object) (int64, bool) {
	for n := e; n != nil; n = n.parent {
		if v, ok := n.consts[obj]; ok {
			return v, true
		}
	}
	return 0, false
}

func newLowerer(name string, fset *token.FileSet, file *ast.File, info *types.Info) *lowerer {
	lo := &lowerer{name: name, fset: fset, file: file, info: info}
	lo.reset()
	return lo
}

// reset clears all per-pass state; declarations and pass-1 outputs consumed
// by pass 2 (shared, waitN) are assigned by Compile between passes.
func (lo *lowerer) reset() {
	lo.al = memmodel.NewAllocator(1 << 20)
	lo.objs = map[objKey]*object{}
	lo.objList = nil
	lo.syncs = map[skey]*syncObj{}
	lo.sites = map[siteKey]sim.SiteID{}
	lo.siteList = nil
	lo.nextSite = 1
	lo.nextSync = 1
	lo.nextLoop = 1
	lo.ctxs = map[objKey]map[ctxID]bool{}
	lo.sigCount = map[skey]int{}
	lo.waitEmitted = map[skey]bool{}
	lo.setup, lo.cont, lo.workers = nil, nil, nil
	lo.cur = nil
	lo.nextCtx = 1
	lo.spawned = false
	if lo.shared == nil {
		lo.shared = map[objKey]bool{}
	}
}

func (lo *lowerer) computeShared() map[objKey]bool {
	shared := map[objKey]bool{}
	for k, set := range lo.ctxs {
		if len(set) >= 2 {
			shared[k] = true
		}
	}
	return shared
}

// errAt wraps an error with a source position.
func (lo *lowerer) errAt(pos token.Pos, format string, args ...any) error {
	return fmt.Errorf("frontend: %s: %s", lo.fset.Position(pos), fmt.Sprintf(format, args...))
}

func (lo *lowerer) collectDecls() error {
	lo.funcs = map[string]*ast.FuncDecl{}
	for _, d := range lo.file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				return lo.errAt(d.Pos(), "methods are unsupported")
			}
			if d.Body == nil && d.Name.Name != "main" {
				return lo.errAt(d.Pos(), "function %s has no body", d.Name.Name)
			}
			lo.funcs[d.Name.Name] = d
			if d.Name.Name == "main" {
				lo.mainFn = d
			}
		case *ast.GenDecl:
			if d.Tok != token.VAR {
				continue // imports, consts, and type decls need no lowering
			}
			for _, spec := range d.Specs {
				lo.pkgVar = append(lo.pkgVar, spec.(*ast.ValueSpec))
			}
		}
	}
	if lo.mainFn == nil || lo.mainFn.Body == nil {
		return fmt.Errorf("frontend: %s: no func main", lo.name)
	}
	return nil
}

// run performs one lowering pass over the file.
func (lo *lowerer) run() error {
	lo.cur = &lo.setup
	root := &env{
		ctx: 0, inMain: true,
		locals:     map[types.Object]*object{},
		syncLocals: map[types.Object]*syncObj{},
		consts:     map[types.Object]int64{},
		mult:       1,
	}
	// Package-level initializers run before main: lower them into Setup.
	for _, spec := range lo.pkgVar {
		for i, name := range spec.Names {
			if i >= len(spec.Values) {
				break
			}
			if err := lo.lowerInit(name, spec.Values[i], root); err != nil {
				return err
			}
		}
	}
	return lo.lowerFuncBody(lo.mainFn.Body.List, root, false)
}

func (lo *lowerer) emit(env *env, ins ...sim.Instr) {
	if env.out != nil {
		*env.out = append(*env.out, ins...)
		return
	}
	*lo.cur = append(*lo.cur, ins...)
}

func (lo *lowerer) useOf(id *ast.Ident) types.Object {
	if o := lo.info.Uses[id]; o != nil {
		return o
	}
	return lo.info.Defs[id]
}

// ---------------------------------------------------------------------------
// Objects and sync objects

// resolveVar returns the data object behind a variable identifier,
// allocating package-level objects on first touch.
func (lo *lowerer) resolveVar(obj types.Object, env *env) (*object, error) {
	if o, ok := env.lookupLocal(obj); ok {
		return o, nil
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return lo.globalObject(obj, 0)
	}
	return nil, fmt.Errorf("local %s used before its declaration was lowered", obj.Name())
}

func (lo *lowerer) globalObject(root types.Object, extentWords int) (*object, error) {
	return lo.makeObject(objKey{root: root}, root.Name(), root.Type(), extentWords)
}

func (lo *lowerer) makeObject(key objKey, name string, t types.Type, extentWords int) (*object, error) {
	if o, ok := lo.objs[key]; ok {
		return o, nil
	}
	_, isMap := t.Underlying().(*types.Map)
	words := extentWords
	if words == 0 {
		if _, ok := t.Underlying().(*types.Slice); ok {
			return nil, fmt.Errorf("slice %s used before make([]T, n) fixes its extent", name)
		}
		var err error
		words, err = lo.typeWords(t)
		if err != nil {
			return nil, fmt.Errorf("variable %s: %w", name, err)
		}
	}
	if words <= 0 {
		words = 1
	}
	o := &object{
		root:  key.root,
		key:   key,
		name:  name,
		base:  lo.al.Alloc(uint64(words)*memmodel.WordSize, memmodel.LineSize),
		words: words,
		isMap: isMap,
	}
	lo.objs[key] = o
	lo.objList = append(lo.objList, o)
	return o, nil
}

// defineLocal registers a newly declared local in env. Sync-typed and
// channel-typed locals become synchronization objects; everything else
// becomes a data object (slices wait for their make()).
func (lo *lowerer) defineLocal(env *env, obj types.Object, extentWords int) error {
	if obj == nil {
		return nil
	}
	t := obj.Type()
	switch syncTypeName(t) {
	case "Mutex":
		env.syncLocals[obj] = lo.newSync(skey{root: obj, inst: env.ctx}, "mutex")
		return nil
	case "RWMutex":
		env.syncLocals[obj] = lo.newSync(skey{root: obj, inst: env.ctx}, "rwmutex")
		return nil
	case "WaitGroup":
		env.syncLocals[obj] = lo.newSync(skey{root: obj, inst: env.ctx}, "wg")
		return nil
	}
	if isChan(t) {
		env.syncLocals[obj] = lo.newSync(skey{root: obj, inst: env.ctx}, "chan")
		return nil
	}
	if _, ok := t.Underlying().(*types.Slice); ok && extentWords == 0 {
		return nil // allocated when make() fixes the extent
	}
	o, err := lo.makeObject(objKey{root: obj, inst: env.ctx}, obj.Name(), t, extentWords)
	if err != nil {
		return err
	}
	env.locals[obj] = o
	return nil
}

func (lo *lowerer) newSync(key skey, kind string) *syncObj {
	if s, ok := lo.syncs[key]; ok {
		return s
	}
	s := &syncObj{id: lo.nextSync, kind: kind, key: key}
	lo.nextSync++
	lo.syncs[key] = s
	return s
}

// resolveSyncExpr resolves a channel or sync-object expression (an
// identifier or a field selector chain) to its synchronization object.
func (lo *lowerer) resolveSyncExpr(e ast.Expr, env *env) (*syncObj, error) {
	path := ""
	for {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			path = sel.Sel.Name + "." + path
			e = sel.X
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil, fmt.Errorf("unsupported synchronization expression %T", e)
	}
	obj := lo.useOf(id)
	if obj == nil {
		return nil, fmt.Errorf("cannot resolve %s", id.Name)
	}
	if path == "" {
		if s, ok := env.lookupSync(obj); ok {
			return s, nil
		}
	}
	if obj.Parent() != obj.Pkg().Scope() && path == "" {
		return nil, fmt.Errorf("sync object %s used before its declaration was lowered", id.Name)
	}
	kind := ""
	t := obj.Type()
	if path == "" {
		switch syncTypeName(t) {
		case "Mutex":
			kind = "mutex"
		case "RWMutex":
			kind = "rwmutex"
		case "WaitGroup":
			kind = "wg"
		default:
			if isChan(t) {
				kind = "chan"
			}
		}
	} else {
		// Field-path sync objects (a mutex inside a struct).
		kind = "mutex"
	}
	if kind == "" {
		return nil, fmt.Errorf("%s is not a synchronization object", id.Name)
	}
	return lo.newSync(skey{root: obj, path: path}, kind), nil
}

// ---------------------------------------------------------------------------
// Access emission

const maxAggregateWords = 16

// emitAccessExpr lowers one addressable expression into memory-access
// instructions (one per word for small aggregate copies).
func (lo *lowerer) emitAccessExpr(e ast.Expr, write bool, env *env) error {
	if id, ok := unparen(e).(*ast.Ident); ok {
		obj := lo.useOf(id)
		if env.loopDepthOf(obj) >= 0 {
			if write {
				return lo.errAt(e.Pos(), "cannot assign to loop induction variable %s", id.Name)
			}
			return nil // loop counters live in the engine, not memory
		}
	}
	if idx, ok := unparen(e).(*ast.IndexExpr); ok {
		if err := lo.evalReads(idx.Index, env); err != nil {
			return err
		}
	}
	r, err := lo.resolveRef(unparen(e), env)
	if err != nil {
		return lo.errAt(e.Pos(), "%s", err)
	}
	return lo.emitRef(r, write, env)
}

func (lo *lowerer) emitRef(r *ref, write bool, env *env) error {
	words := r.words
	if words < 1 {
		words = 1
	}
	if words > maxAggregateWords {
		return lo.errAt(r.pos, "aggregate copy of %s spans %d words (max %d)", r.label, words, maxAggregateWords)
	}
	lo.recordCtx(r.obj, env)
	site := lo.siteFor(r.pos, write, r.label)
	local := !lo.analyze && !lo.shared[r.obj.key]
	for w := 0; w < words; w++ {
		lo.emit(env, &sim.MemAccess{
			Write: write,
			Addr:  addWordOffset(r.addr, int64(w)),
			Site:  site,
			Local: local,
		})
	}
	return nil
}

func (lo *lowerer) recordCtx(o *object, env *env) {
	set, ok := lo.ctxs[o.key]
	if !ok {
		set = map[ctxID]bool{}
		lo.ctxs[o.key] = set
	}
	set[env.ctx] = true
}

func (lo *lowerer) siteFor(pos token.Pos, write bool, label string) sim.SiteID {
	k := siteKey{pos: pos, write: write}
	if id, ok := lo.sites[k]; ok {
		return id
	}
	id := lo.nextSite
	lo.nextSite++
	lo.sites[k] = id
	p := lo.fset.Position(pos)
	lo.siteList = append(lo.siteList, Site{
		ID: id, File: p.Filename, Line: p.Line, Col: p.Column,
		Write: write, Object: label,
	})
	return id
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// evalReads emits the memory reads performed by evaluating e.
func (lo *lowerer) evalReads(e ast.Expr, env *env) error {
	switch e := e.(type) {
	case nil, *ast.BasicLit:
		return nil
	case *ast.Ident:
		obj := lo.useOf(e)
		if v, ok := obj.(*types.Var); ok && v.Name() != "_" {
			if env.loopDepthOf(obj) >= 0 {
				return nil
			}
			return lo.emitAccessExpr(e, false, env)
		}
		return nil // constants, types, true/false/nil/iota
	case *ast.ParenExpr:
		return lo.evalReads(e.X, env)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			if cl, ok := unparen(e.X).(*ast.CompositeLit); ok {
				return lo.evalReads(cl, env)
			}
			return nil // taking an address reads nothing
		case token.ARROW:
			return lo.lowerRecv(e, env)
		default:
			return lo.evalReads(e.X, env)
		}
	case *ast.BinaryExpr:
		if err := lo.evalReads(e.X, env); err != nil {
			return err
		}
		return lo.evalReads(e.Y, env)
	case *ast.SelectorExpr:
		return lo.emitAccessExpr(e, false, env)
	case *ast.IndexExpr:
		return lo.emitAccessExpr(e, false, env)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if _, isMapLit := lo.info.Types[e].Type.Underlying().(*types.Map); isMapLit {
					if err := lo.evalReads(kv.Key, env); err != nil {
						return err
					}
				}
				if err := lo.evalReads(kv.Value, env); err != nil {
					return err
				}
				continue
			}
			if err := lo.evalReads(elt, env); err != nil {
				return err
			}
		}
		return nil
	case *ast.CallExpr:
		return lo.evalCallReads(e, env)
	case *ast.StarExpr:
		return lo.errAt(e.Pos(), "pointer dereference is unsupported (pointers are opaque word values)")
	case *ast.FuncLit:
		return lo.errAt(e.Pos(), "function literals are supported only as go-statement targets")
	default:
		return lo.errAt(e.Pos(), "unsupported expression %T", e)
	}
}

// evalCallReads handles calls in expression position: len/cap, conversions,
// and nothing else (helper calls must be statements or a sole RHS).
func (lo *lowerer) evalCallReads(call *ast.CallExpr, env *env) error {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := lo.useOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap":
				arg := call.Args[0]
				if _, isMap := lo.info.Types[arg].Type.Underlying().(*types.Map); isMap {
					return lo.emitAccessExpr(arg, false, env)
				}
				return nil // array/slice lengths are header-only in this model
			default:
				return lo.errAt(call.Pos(), "builtin %s is unsupported in expressions", b.Name())
			}
		}
		if _, isType := lo.useOf(id).(*types.TypeName); isType {
			return lo.evalReads(call.Args[0], env) // conversion T(x)
		}
		if _, isFunc := lo.funcs[id.Name]; isFunc {
			return lo.errAt(call.Pos(), "helper call %s(...) must be a statement or the sole right-hand side of an assignment", id.Name)
		}
	}
	return lo.errAt(call.Pos(), "unsupported call in expression")
}

// ---------------------------------------------------------------------------
// Statements

func (lo *lowerer) lowerFuncBody(list []ast.Stmt, env *env, allowReturn bool) error {
	var defers []*ast.CallExpr
	env.defers = &defers
	for i, s := range list {
		if ret, ok := s.(*ast.ReturnStmt); ok {
			if i != len(list)-1 {
				return lo.errAt(ret.Pos(), "return is supported only as the last statement of a function")
			}
			for _, r := range ret.Results {
				if err := lo.evalReads(r, env); err != nil {
					return err
				}
			}
			break
		}
		if err := lo.lowerStmt(s, env); err != nil {
			return err
		}
	}
	for i := len(defers) - 1; i >= 0; i-- {
		if err := lo.lowerCallStmt(defers[i], env); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) lowerBody(list []ast.Stmt, env *env) error {
	for _, s := range list {
		if err := lo.lowerStmt(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) lowerStmt(s ast.Stmt, env *env) error {
	switch s := s.(type) {
	case *ast.EmptyStmt:
		return nil
	case *ast.BlockStmt:
		return lo.lowerBody(s.List, env)
	case *ast.DeclStmt:
		return lo.lowerDeclStmt(s, env)
	case *ast.AssignStmt:
		return lo.lowerAssign(s, env)
	case *ast.IncDecStmt:
		if err := lo.emitAccessExpr(s.X, false, env); err != nil {
			return err
		}
		return lo.emitAccessExpr(s.X, true, env)
	case *ast.ExprStmt:
		call, ok := unparen(s.X).(*ast.CallExpr)
		if !ok {
			if u, isRecv := unparen(s.X).(*ast.UnaryExpr); isRecv && u.Op == token.ARROW {
				return lo.lowerRecv(u, env)
			}
			return lo.errAt(s.Pos(), "unsupported expression statement")
		}
		return lo.lowerCallStmt(call, env)
	case *ast.SendStmt:
		if err := lo.evalReads(s.Value, env); err != nil {
			return err
		}
		ch, err := lo.resolveSyncExpr(unparen(s.Chan), env)
		if err != nil {
			return lo.errAt(s.Pos(), "%s", err)
		}
		lo.sigCount[ch.key] += env.mult
		lo.emit(env, &sim.Signal{C: ch.id})
		return nil
	case *ast.GoStmt:
		return lo.lowerGo(s, env)
	case *ast.DeferStmt:
		*env.defers = append(*env.defers, s.Call)
		return nil
	case *ast.IfStmt:
		return lo.lowerIf(s, env)
	case *ast.ForStmt:
		return lo.lowerFor(s, env)
	case *ast.RangeStmt:
		return lo.lowerRange(s, env)
	case *ast.ReturnStmt:
		return lo.errAt(s.Pos(), "return is supported only as the last statement of a function")
	default:
		return lo.errAt(s.Pos(), "unsupported statement %T", s)
	}
}

func (lo *lowerer) lowerDeclStmt(d *ast.DeclStmt, env *env) error {
	gd, ok := d.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return lo.errAt(d.Pos(), "unsupported declaration")
	}
	for _, spec := range gd.Specs {
		vs := spec.(*ast.ValueSpec)
		for i, name := range vs.Names {
			var value ast.Expr
			if i < len(vs.Values) {
				value = vs.Values[i]
			}
			if err := lo.lowerInit(name, value, env); err != nil {
				return err
			}
		}
	}
	return nil
}

// lowerInit lowers one declared name with an optional initializer — used
// for both local var declarations and package-level var specs.
func (lo *lowerer) lowerInit(name *ast.Ident, value ast.Expr, env *env) error {
	obj := lo.info.Defs[name]
	if value == nil {
		if obj == nil || name.Name == "_" {
			return nil
		}
		return lo.wrapAt(name.Pos(), lo.defineLocal(env, obj, 0))
	}
	if done, err := lo.lowerMake(name, value, env); done || err != nil {
		return err
	}
	if err := lo.evalReads(value, env); err != nil {
		return err
	}
	if obj == nil || name.Name == "_" {
		return nil
	}
	if err := lo.wrapAt(name.Pos(), lo.defineLocal(env, obj, 0)); err != nil {
		return err
	}
	if _, isSync := env.syncLocals[obj]; isSync {
		return nil
	}
	return lo.emitAccessExpr(name, true, env)
}

func (lo *lowerer) wrapAt(pos token.Pos, err error) error {
	if err != nil {
		return lo.errAt(pos, "%s", err)
	}
	return nil
}

// lowerMake recognizes `name = make(...)` initializers: channels become
// semaphores, maps become their one-word object, and make([]T, n) fixes a
// slice's extent. Returns done=true when it consumed the initializer.
func (lo *lowerer) lowerMake(name *ast.Ident, value ast.Expr, env *env) (bool, error) {
	call, ok := unparen(value).(*ast.CallExpr)
	if !ok {
		return false, nil
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false, nil
	}
	if b, isB := lo.useOf(id).(*types.Builtin); !isB || b.Name() != "make" {
		return false, nil
	}
	obj := lo.info.Defs[name]
	if obj == nil {
		obj = lo.info.Uses[name]
	}
	if obj == nil {
		return true, lo.errAt(name.Pos(), "cannot resolve %s", name.Name)
	}
	t := lo.info.Types[call].Type
	if isChan(t) {
		// Buffered or not, a channel lowers to a semaphore: send posts,
		// recv pends, carrying the send-happens-before-recv edge.
		if obj.Parent() == obj.Pkg().Scope() {
			lo.newSync(skey{root: obj}, "chan")
		} else if _, ok := env.lookupSync(obj); !ok {
			env.syncLocals[obj] = lo.newSync(skey{root: obj, inst: env.ctx}, "chan")
		}
		return true, nil
	}
	extent := 0
	if _, isSlice := t.Underlying().(*types.Slice); isSlice {
		if len(call.Args) < 2 {
			return true, lo.errAt(call.Pos(), "make([]T) needs a constant length")
		}
		n, ok := lo.constOrKnown(call.Args[1], env)
		if !ok || n <= 0 {
			return true, lo.errAt(call.Pos(), "make([]T, n) needs a positive constant length")
		}
		ew, err := lo.typeWords(t.Underlying().(*types.Slice).Elem())
		if err != nil {
			return true, lo.errAt(call.Pos(), "%s", err)
		}
		extent = int(n) * ew
	}
	var o *object
	var err error
	if obj.Parent() == obj.Pkg().Scope() {
		o, err = lo.globalObject(obj, extent)
	} else {
		if existing, ok := env.lookupLocal(obj); ok {
			o = existing
		} else {
			o, err = lo.makeObject(objKey{root: obj, inst: env.ctx}, obj.Name(), obj.Type(), extent)
			if err == nil {
				env.locals[obj] = o
			}
		}
	}
	if err != nil {
		return true, lo.errAt(name.Pos(), "%s", err)
	}
	// make() publishes a fresh header: one write of the object word.
	return true, lo.emitRef(&ref{obj: o, addr: sim.Fixed(o.base), words: 1, label: o.name, pos: name.Pos()}, true, env)
}

func (lo *lowerer) constOrKnown(e ast.Expr, env *env) (int64, bool) {
	if v, ok := lo.constValue(e); ok {
		return v, true
	}
	if id, ok := unparen(e).(*ast.Ident); ok {
		if v, ok := env.lookupConst(lo.useOf(id)); ok {
			return v, true
		}
	}
	return 0, false
}

func (lo *lowerer) lowerAssign(as *ast.AssignStmt, env *env) error {
	switch as.Tok {
	case token.DEFINE, token.ASSIGN:
		// make() initializers first (they register objects, not reads).
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if id, ok := unparen(as.Lhs[0]).(*ast.Ident); ok {
				if done, err := lo.lowerMake(id, as.Rhs[0], env); done || err != nil {
					return err
				}
				// Sole-RHS helper call: inline, then store the result.
				if call, ok := unparen(as.Rhs[0]).(*ast.CallExpr); ok {
					if fn, ok := unparen(call.Fun).(*ast.Ident); ok {
						if _, isHelper := lo.funcs[fn.Name]; isHelper {
							if err := lo.inlineCall(call, env); err != nil {
								return err
							}
							return lo.assignTo(as, id, env)
						}
					}
				}
			}
		}
		for _, r := range as.Rhs {
			if err := lo.evalReads(r, env); err != nil {
				return err
			}
		}
		for _, l := range as.Lhs {
			if id, ok := unparen(l).(*ast.Ident); ok {
				if err := lo.assignTo(as, id, env); err != nil {
					return err
				}
				continue
			}
			if err := lo.emitAccessExpr(l, true, env); err != nil {
				return err
			}
		}
		return nil
	default:
		// Op-assign (+=, -=, …) reads then writes its single operand.
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return lo.errAt(as.Pos(), "malformed op-assign")
		}
		if err := lo.emitAccessExpr(as.Lhs[0], false, env); err != nil {
			return err
		}
		if err := lo.evalReads(as.Rhs[0], env); err != nil {
			return err
		}
		return lo.emitAccessExpr(as.Lhs[0], true, env)
	}
}

// assignTo emits the write half of an assignment to an identifier,
// registering := definitions first.
func (lo *lowerer) assignTo(as *ast.AssignStmt, id *ast.Ident, env *env) error {
	if id.Name == "_" {
		return nil
	}
	if def := lo.info.Defs[id]; def != nil {
		if err := lo.wrapAt(id.Pos(), lo.defineLocal(env, def, 0)); err != nil {
			return err
		}
		if _, isSync := env.syncLocals[def]; isSync {
			return nil
		}
	}
	return lo.emitAccessExpr(id, true, env)
}

func (lo *lowerer) lowerRecv(u *ast.UnaryExpr, env *env) error {
	ch, err := lo.resolveSyncExpr(unparen(u.X), env)
	if err != nil {
		return lo.errAt(u.Pos(), "%s", err)
	}
	lo.emit(env, &sim.Wait{C: ch.id})
	return nil
}

func (lo *lowerer) lowerIf(s *ast.IfStmt, env *env) error {
	if s.Init != nil {
		if err := lo.lowerStmt(s.Init, env); err != nil {
			return err
		}
	}
	if err := lo.evalReads(s.Cond, env); err != nil {
		return err
	}
	// Memory carries no values, so for happens-before purposes both arms
	// are emitted straight-line (DESIGN §13's documented approximation).
	if err := lo.lowerBody(s.Body.List, env); err != nil {
		return err
	}
	if s.Else != nil {
		return lo.lowerStmt(s.Else, env)
	}
	return nil
}
