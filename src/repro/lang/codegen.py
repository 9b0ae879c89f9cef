"""AST → bytecode generation for minij.

Lowers the resolved AST onto :class:`~repro.bytecode.builder.MethodBuilder`:

- ``bool`` erases to the bytecode ``int``;
- ``&&`` / ``||`` become control flow (short-circuit);
- ``while`` loops emit the bottom-tested form (one conditional branch
  per iteration, the backedge carrying the loop profile);
- traits become interfaces (default methods keep their bodies), objects
  become abstract classes of statics;
- every lambda becomes an anonymous ``$LambdaN`` class implementing its
  function trait, with one field per captured local (plus ``$this``
  when the enclosing instance is captured) — the Figure 2 ``$anon``
  lowering. Reference-typed lambda parameters arrive erased as
  ``Object`` and are cast on entry, as on the JVM.
"""

from repro.bytecode.builder import MethodBuilder
from repro.bytecode.klass import ClassDef, FieldDef
from repro.bytecode.method import Method
from repro.errors import ResolveError
from repro.lang import ast


def erase_type(type_name):
    """Map a source type to its bytecode type."""
    if type_name == "bool":
        return "int"
    if type_name.endswith("[]"):
        return erase_type(type_name[:-2]) + "[]"
    return type_name


class CodeGen:
    """Adds the classes of one resolver run to *program*: its own
    declarations in source order, then its ``$LambdaN`` classes."""

    def __init__(self, resolver, program):
        self.table = resolver.table
        self.decls = resolver.decls
        self.lambdas = resolver.lambdas
        self.program = program

    def run(self):
        for decl in self.decls:
            self._gen_class(decl)
        for lam in self.lambdas:
            self._gen_lambda_class(lam)
        return self.program

    # ------------------------------------------------------------------
    # Classes
    # ------------------------------------------------------------------

    def _gen_class(self, decl):
        klass = ClassDef(
            decl.name,
            superclass=decl.superclass or "Object",
            interfaces=decl.interfaces,
            is_interface=decl.kind == "trait",
            is_abstract=decl.kind in ("trait", "object")
            or any(m.is_abstract and not m.is_static for m in decl.methods),
        )
        for field in decl.fields:
            klass.add_field(
                FieldDef(field.name, erase_type(field.type), field.is_static)
            )
        for method in decl.methods:
            klass.add_method(self._gen_method(decl, method))
        self.program.add_class(klass)

    def _gen_method(self, decl, method):
        param_types = [erase_type(t) for _n, t in method.params]
        return_type = erase_type(method.return_type)
        if method.is_abstract:
            return Method(
                method.name,
                param_types,
                return_type,
                is_static=method.is_static,
                is_abstract=True,
            )
        builder = MethodBuilder(
            method.name, param_types, return_type, is_static=method.is_static
        )
        builder.force_inline = "inline" in method.annotations
        builder.never_inline = "noinline" in method.annotations
        env = {}
        base = 0 if method.is_static else 1
        for index, (name, _t) in enumerate(method.params):
            env[name] = base + index
        context = _MethodContext(
            self, decl.name, method.is_static, env, builder, in_lambda=None
        )
        context.gen_block(method.body)
        self._ensure_terminated(builder, method)
        return builder.build()

    def _ensure_terminated(self, builder, method):
        """Append the implicit return of void methods (the resolver
        guarantees value-returning methods return on every path; an
        unreachable trailing RET keeps the verifier satisfied when the
        last statement is a loop)."""
        code = builder._code
        if method.return_type == "void":
            builder.ret()
        elif not code or code[-1].op not in ("RET", "RETV", "GOTO"):
            # Unreachable filler after e.g. `while(true)`; RETV needs a
            # value, so emit CONST 0 / NULL accordingly.
            if erase_type(method.return_type) == "int":
                builder.const(0).retv()
            else:
                builder.null().retv()

    # ------------------------------------------------------------------
    # Lambdas
    # ------------------------------------------------------------------

    def _gen_lambda_class(self, lam):
        iface_decl = self.table.decl(lam.interface)
        apply_decl = None
        for m in iface_decl.methods:
            if m.name == "apply":
                apply_decl = m
                break
        if apply_decl is None:
            raise ResolveError(
                "function trait %s lacks apply" % lam.interface,
                lam.line,
                lam.column,
            )
        klass = ClassDef(lam.class_name, interfaces=[lam.interface])
        if lam.captures_this:
            klass.add_field(FieldDef("$this", "Object"))
        for name, type_name in lam.captures:
            klass.add_field(FieldDef(name, erase_type(type_name)))

        param_types = [erase_type(t) for _n, t in apply_decl.params]
        return_type = erase_type(apply_decl.return_type)
        builder = MethodBuilder("apply", param_types, return_type)
        env = {}
        for index, (name, declared) in enumerate(lam.params):
            slot = 1 + index
            env[name] = slot
            iface_param = apply_decl.params[index][1]
            if declared not in ("int", "bool") and erase_type(
                declared
            ) != erase_type(iface_param):
                # Erasure cast on entry, like a JVM bridge method.
                builder.load(slot).checkcast(erase_type(declared)).store(slot)
        context = _MethodContext(
            self,
            self._lambda_owner_class(lam),
            False,
            env,
            builder,
            in_lambda=lam,
        )
        context.gen_block(lam.body)
        if erase_type(lam.return_type) == "void":
            builder.ret()
        elif not builder._code or builder._code[-1].op not in (
            "RET",
            "RETV",
            "GOTO",
        ):
            if erase_type(lam.return_type) == "int":
                builder.const(0).retv()
            else:
                builder.null().retv()
        klass.add_method(builder.build())
        self.program.add_class(klass)

    def _lambda_owner_class(self, lam):
        """The class whose fields/methods the lambda body reaches via the
        captured $this (recorded when the creation site was generated)."""
        return lam._owner_class


class _MethodContext:
    """Per-method code generation state."""

    def __init__(self, codegen, class_name, is_static, env, builder, in_lambda):
        self.codegen = codegen
        self.table = codegen.table
        self.class_name = class_name
        self.is_static = is_static
        self.env = env
        self.b = builder
        self.lam = in_lambda

    # -- this plumbing ------------------------------------------------------

    def _load_this(self):
        """Push the *logical* this (the enclosing instance)."""
        if self.lam is not None:
            self.b.load(0).getfield(self.lam.class_name, "$this")
            owner = self._this_type()
            if owner != "Object":
                self.b.checkcast(owner)
        else:
            self.b.load(0)

    def _this_type(self):
        if self.lam is not None:
            return self.lam._owner_class
        return self.class_name

    # -- statements -----------------------------------------------------------

    def gen_block(self, block):
        for stmt in block.stmts:
            self.gen_stmt(stmt)

    def gen_stmt(self, stmt):
        if isinstance(stmt, ast.BlockStmt):
            self.gen_block(stmt)
        elif isinstance(stmt, ast.VarStmt):
            slot = self.b.alloc_local()
            self.env[stmt.name] = slot
            if stmt.init is not None:
                self.gen_expr(stmt.init)
                self.b.store(slot)
            else:
                if erase_type(stmt.type) == "int":
                    self.b.const(0)
                else:
                    self.b.null()
                self.b.store(slot)
        elif isinstance(stmt, ast.AssignStmt):
            self._gen_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.gen_expr(stmt.expr)
            if stmt.expr.type not in ("void",):
                self.b.pop()
        elif isinstance(stmt, ast.IfStmt):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is None:
                self.b.ret()
            else:
                self.gen_expr(stmt.value)
                self.b.retv()
        else:
            raise ResolveError("cannot generate %r" % stmt, stmt.line, stmt.column)

    def _gen_if(self, stmt):
        then_label = self.b.new_label()
        end_label = self.b.new_label()
        self.gen_expr(stmt.condition)
        self.b.if_true(then_label)
        if stmt.else_body is not None:
            self.gen_stmt(stmt.else_body)
        self.b.goto(end_label)
        self.b.place(then_label)
        self.gen_stmt(stmt.then_body)
        self.b.place(end_label)

    def _gen_while(self, stmt):
        cond_label = self.b.new_label()
        body_label = self.b.new_label()
        self.b.goto(cond_label)
        self.b.place(body_label)
        self.gen_stmt(stmt.body)
        self.b.place(cond_label)
        self.gen_expr(stmt.condition)
        self.b.if_true(body_label)

    def _gen_assign(self, stmt):
        target = stmt.target
        if isinstance(target, ast.NameExpr):
            if target.binding == "local":
                self.gen_expr(stmt.value)
                self.b.store(self.env[target.name])
            elif target.binding == "field":
                owner, _decl = target.slot
                self._load_this()
                self.gen_expr(stmt.value)
                self.b.putfield(owner, target.name)
            elif target.binding == "static-field":
                owner, _decl = target.slot
                self.gen_expr(stmt.value)
                self.b.putstatic(owner, target.name)
            else:
                raise ResolveError(
                    "cannot assign to %s" % target.binding,
                    stmt.line,
                    stmt.column,
                )
        elif isinstance(target, ast.FieldExpr):
            if target.binding == "static-field":
                self.gen_expr(stmt.value)
                self.b.putstatic(target.owner, target.name)
            else:
                self.gen_expr(target.target)
                self.gen_expr(stmt.value)
                self.b.putfield(target.owner, target.name)
        elif isinstance(target, ast.IndexExpr):
            self.gen_expr(target.target)
            self.gen_expr(target.index)
            self.gen_expr(stmt.value)
            self.b.astore()
        else:
            raise ResolveError("bad assignment target", stmt.line, stmt.column)

    # -- expressions --------------------------------------------------------------

    def gen_expr(self, expr):
        if isinstance(expr, ast.IntLit):
            self.b.const(expr.value)
        elif isinstance(expr, ast.BoolLit):
            self.b.const(1 if expr.value else 0)
        elif isinstance(expr, ast.NullLit):
            self.b.null()
        elif isinstance(expr, ast.ThisExpr):
            self._load_this()
        elif isinstance(expr, ast.NameExpr):
            self._gen_name(expr)
        elif isinstance(expr, ast.FieldExpr):
            self._gen_field(expr)
        elif isinstance(expr, ast.IndexExpr):
            self.gen_expr(expr.target)
            self.gen_expr(expr.index)
            self.b.aload(erase_type(expr.type))
        elif isinstance(expr, ast.CallExpr):
            self._gen_call(expr)
        elif isinstance(expr, ast.NewExpr):
            self._gen_new(expr)
        elif isinstance(expr, ast.NewArrayExpr):
            self.gen_expr(expr.length)
            self.b.newarray(erase_type(expr.elem_type))
        elif isinstance(expr, ast.UnaryExpr):
            self.gen_expr(expr.operand)
            if expr.op == "-":
                self.b.neg()
            else:
                self.b.const(1).xor()
        elif isinstance(expr, ast.BinaryExpr):
            self._gen_binary(expr)
        elif isinstance(expr, ast.IsExpr):
            self.gen_expr(expr.operand)
            self.b.instanceof(erase_type(expr.type_name))
        elif isinstance(expr, ast.AsExpr):
            self.gen_expr(expr.operand)
            self.b.checkcast(erase_type(expr.type_name))
        elif isinstance(expr, ast.LambdaExpr):
            self._gen_lambda_new(expr)
        else:
            raise ResolveError(
                "cannot generate %r" % expr, expr.line, expr.column
            )

    def _gen_name(self, expr):
        if expr.binding == "local":
            self.b.load(self.env[expr.name])
        elif expr.binding == "capture":
            self.b.load(0).getfield(self.lam.class_name, expr.name)
        elif expr.binding == "field":
            owner, _decl = expr.slot
            self._load_this()
            self.b.getfield(owner, expr.name)
        elif expr.binding == "static-field":
            owner, _decl = expr.slot
            self.b.getstatic(owner, expr.name)
        else:
            raise ResolveError(
                "name %s is not a value" % expr.name, expr.line, expr.column
            )

    def _gen_field(self, expr):
        if expr.binding == "arraylen":
            self.gen_expr(expr.target)
            self.b.arraylen()
        elif expr.binding == "static-field":
            self.b.getstatic(expr.owner, expr.name)
        else:
            self.gen_expr(expr.target)
            self.b.getfield(expr.owner, expr.name)

    def _gen_call(self, expr):
        dispatch = expr.dispatch
        if dispatch == "builtin":
            for arg in expr.args:
                self.gen_expr(arg)
            self.b.invokestatic("Builtins", expr.name)
            return
        if dispatch == "static":
            for arg in expr.args:
                self.gen_expr(arg)
            self.b.invokestatic(expr.owner, expr.name)
            return
        if dispatch == "special":
            self._load_this()
            for arg in expr.args:
                self.gen_expr(arg)
            self.b.invokespecial(expr.owner, expr.name)
            return
        # Virtual / interface.
        if expr.target is None:
            self._load_this()
            owner = self._this_type() if self.lam is not None else self.class_name
            owner = expr.owner or owner
        else:
            self.gen_expr(expr.target)
            owner = expr.owner
        for arg in expr.args:
            self.gen_expr(arg)
        if dispatch == "interface":
            self.b.invokeinterface(owner, expr.name)
        else:
            self.b.invokevirtual(owner, expr.name)

    def _gen_new(self, expr):
        self.b.new(expr.class_name)
        if expr.has_ctor:
            self.b.dup()
            for arg in expr.args:
                self.gen_expr(arg)
            self.b.invokespecial(expr.class_name, "init")

    def _gen_binary(self, expr):
        op = expr.op
        if op == "&&":
            right_label = self.b.new_label()
            end_label = self.b.new_label()
            self.gen_expr(expr.left)
            self.b.if_true(right_label)
            self.b.const(0)
            self.b.goto(end_label)
            self.b.place(right_label)
            self.gen_expr(expr.right)
            self.b.place(end_label)
            return
        if op == "||":
            true_label = self.b.new_label()
            end_label = self.b.new_label()
            self.gen_expr(expr.left)
            self.b.if_true(true_label)
            self.gen_expr(expr.right)
            self.b.goto(end_label)
            self.b.place(true_label)
            self.b.const(1)
            self.b.place(end_label)
            return
        self.gen_expr(expr.left)
        self.gen_expr(expr.right)
        is_ref = expr.left.type not in ("int", "bool") or expr.left.type == "null"
        if op == "+":
            self.b.add()
        elif op == "-":
            self.b.sub()
        elif op == "*":
            self.b.mul()
        elif op == "/":
            self.b.div()
        elif op == "%":
            self.b.rem()
        elif op == "<<":
            self.b.shl()
        elif op == ">>":
            self.b.shr()
        elif op == "&":
            self.b.and_()
        elif op == "|":
            self.b.or_()
        elif op == "^":
            self.b.xor()
        elif op == "<":
            self.b.lt()
        elif op == "<=":
            self.b.le()
        elif op == ">":
            self.b.gt()
        elif op == ">=":
            self.b.ge()
        elif op == "==":
            if is_ref:
                self.b.ref_eq()
            else:
                self.b.eq()
        elif op == "!=":
            if is_ref:
                self.b.ref_ne()
            else:
                self.b.ne()
        else:
            raise ResolveError("unknown operator %s" % op, expr.line, expr.column)

    def _gen_lambda_new(self, lam):
        lam._owner_class = self._this_type()
        self.b.new(lam.class_name)
        if lam.captures_this:
            self.b.dup()
            self._load_this()
            self.b.putfield(lam.class_name, "$this")
        for name, _type in lam.captures:
            self.b.dup()
            # The captured variable is a local here (or itself a capture
            # of the enclosing lambda).
            if name in self.env:
                self.b.load(self.env[name])
            elif self.lam is not None and any(
                c[0] == name for c in self.lam.captures
            ):
                self.b.load(0).getfield(self.lam.class_name, name)
            else:
                raise ResolveError("cannot capture %s" % name, lam.line, lam.column)
            self.b.putfield(lam.class_name, name)
