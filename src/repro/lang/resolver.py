"""Semantic analysis for minij.

The resolver runs over a module list (the stdlib once per process, then
each user module against the stdlib's already-resolved class table) and

- builds the class table and validates the hierarchy;
- type-checks every method body, annotating expressions with their
  static source type (``int``, ``bool``, ``void``, class names,
  arrays);
- resolves every name to a binding (local / field / static field /
  class reference / lambda capture) and every call to a dispatch kind
  (virtual / interface / static / special / builtin);
- assigns each lambda its function-trait interface from the fixed
  signature table, computes its capture set (transitively through
  nested lambdas) and a fresh ``$LambdaN`` class name.

bool is a distinct source type that erases to the bytecode int; class
types used in lambda signatures erase to ``Object`` in the function
traits, with the resolver recording the cast-on-entry the code
generator must emit — the same erasure scheme Scala uses on the JVM,
which is precisely what gives the paper's Figure 1 its optimization
potential once inlined.
"""

from repro.errors import ResolveError
from repro.lang import ast
from repro.runtime.intrinsics import INTRINSIC_TABLE

#: (normalized param kinds, normalized return kind) -> function trait.
LAMBDA_INTERFACES = {
    ((), "void"): "Action0",
    ((), "int"): "IntFn0",
    ((), "Object"): "Fn0",
    (("int",), "int"): "IntFn1",
    (("int",), "bool"): "IntPred",
    (("int",), "void"): "IntAction",
    (("int",), "Object"): "IntToObjFn",
    (("Object",), "Object"): "Fn1",
    (("Object",), "bool"): "Pred1",
    (("Object",), "int"): "ToIntFn",
    (("Object",), "void"): "Action1",
    (("int", "int"), "int"): "IntFn2",
    (("int", "int"), "bool"): "IntPred2",
    (("int", "int"), "void"): "IntAction2",
    (("Object", "Object"), "Object"): "Fn2",
    (("Object", "Object"), "bool"): "Pred2",
    (("Object", "Object"), "int"): "ToIntFn2",
    (("Object", "int"), "Object"): "ObjIntFn",
    (("Object", "int"), "void"): "ObjIntAction",
    (("Object", "int"), "int"): "ObjIntToInt",
    (("int", "Object"), "Object"): "IntObjFn",
}


def _is_ref(type_name):
    return type_name not in ("int", "bool", "void")


def _normalize(type_name):
    """Erase a source type to a function-trait signature kind."""
    if type_name in ("int", "bool", "void"):
        return type_name
    return "Object"


def _normalize_param(type_name):
    """Parameter erasure: bool folds into int (the traits declare int
    parameters; only the *return* kind distinguishes predicates)."""
    if type_name == "bool":
        return "int"
    return _normalize(type_name)


class ClassTable:
    """Name → declaration with hierarchy queries.

    With a *base* table, the new *decls* join the base's declarations
    (which were checked when the base was built), and only they are
    checked.
    """

    def __init__(self, decls, base=None):
        self.decls = dict(base.decls) if base is not None else {}
        for decl in decls:
            if decl.name in self.decls or decl.name == "Object":
                raise ResolveError(
                    "duplicate class %s" % decl.name, decl.line, decl.column
                )
            self.decls[decl.name] = decl
        self._check_hierarchy(decls)

    def _check_hierarchy(self, decls):
        for decl in decls:
            if decl.superclass is not None:
                sup = self.decls.get(decl.superclass)
                if decl.superclass != "Object" and sup is None:
                    raise ResolveError(
                        "unknown superclass %s" % decl.superclass,
                        decl.line,
                        decl.column,
                    )
                if sup is not None and sup.kind != "class":
                    raise ResolveError(
                        "%s cannot extend %s %s"
                        % (decl.name, sup.kind, sup.name),
                        decl.line,
                        decl.column,
                    )
            for iname in decl.interfaces:
                iface = self.decls.get(iname)
                if iface is None or iface.kind != "trait":
                    raise ResolveError(
                        "%s implements unknown trait %s" % (decl.name, iname),
                        decl.line,
                        decl.column,
                    )
            # Reject inheritance cycles.
            seen = set()
            node = decl
            while node is not None:
                if node.name in seen:
                    raise ResolveError(
                        "inheritance cycle at %s" % decl.name,
                        decl.line,
                        decl.column,
                    )
                seen.add(node.name)
                node = (
                    self.decls.get(node.superclass)
                    if node.superclass and node.superclass != "Object"
                    else None
                )

    def has(self, name):
        return name == "Object" or name in self.decls

    def decl(self, name):
        return self.decls.get(name)

    def superclass_chain(self, name):
        while name is not None and name != "Object":
            decl = self.decls.get(name)
            if decl is None:
                break
            yield decl
            name = decl.superclass if decl.kind == "class" else None

    def all_interfaces(self, name):
        result = set()
        work = []
        for decl in self.superclass_chain(name):
            work.extend(decl.interfaces)
        start = self.decls.get(name)
        if start is not None and start.kind == "trait":
            work.append(name)
        while work:
            iname = work.pop()
            if iname in result:
                continue
            result.add(iname)
            decl = self.decls.get(iname)
            if decl is not None:
                work.extend(decl.interfaces)
        return result

    def is_subtype(self, sub, sup):
        if sub == sup or sup == "Object":
            return True
        if sub.endswith("[]"):
            if sup.endswith("[]"):
                a, b = sub[:-2], sup[:-2]
                if a in ("int", "bool") or b in ("int", "bool"):
                    return a == b
                return self.is_subtype(a, b)
            return False
        if sup.endswith("[]"):
            return False
        sup_decl = self.decls.get(sup)
        if sup_decl is not None and sup_decl.kind == "trait":
            return sup in self.all_interfaces(sub)
        for decl in self.superclass_chain(sub):
            if decl.name == sup:
                return True
        return False

    def assignable(self, value_type, target_type):
        if value_type == target_type:
            return True
        if value_type == "null":
            return _is_ref(target_type)
        if _is_ref(value_type) and _is_ref(target_type):
            return self.is_subtype(value_type, target_type)
        return False

    def find_method(self, class_name, method_name):
        """Returns ``(owner_name, MethodDecl)`` or None."""
        for decl in self.superclass_chain(class_name):
            for method in decl.methods:
                if method.name == method_name and not method.is_static:
                    return decl.name, method
        for iname in sorted(self.all_interfaces(class_name)):
            decl = self.decls[iname]
            for method in decl.methods:
                if method.name == method_name and not method.is_static:
                    return iname, method
        return None

    def find_static_method(self, class_name, method_name):
        decl = self.decls.get(class_name)
        if decl is None:
            return None
        for method in decl.methods:
            if method.name == method_name and method.is_static:
                return class_name, method
        return None

    def find_field(self, class_name, field_name, want_static=False):
        for decl in self.superclass_chain(class_name):
            for field in decl.fields:
                if field.name == field_name and field.is_static == want_static:
                    return decl.name, field
        if want_static:
            decl = self.decls.get(class_name)
            if decl is not None and decl.kind == "object":
                for field in decl.fields:
                    if field.name == field_name:
                        return decl.name, field
        return None


class _Scope:
    """A lexical scope; lambdas introduce boundary scopes so captures
    can be detected when resolution crosses them."""

    def __init__(self, parent=None, boundary=None):
        self.parent = parent
        self.boundary = boundary  # LambdaExpr or None
        self.names = {}

    def declare(self, name, type_name, node):
        self.names[name] = (type_name, node)

    def lookup(self, name):
        """Returns ``(type, node, crossed_lambdas)`` or None."""
        crossed = []
        scope = self
        while scope is not None:
            if name in scope.names:
                type_name, node = scope.names[name]
                return type_name, node, crossed
            if scope.boundary is not None:
                crossed.append(scope.boundary)
            scope = scope.parent
        return None


class Resolver:
    """Resolves and type-checks a list of modules in one namespace.

    With a *base* :class:`ClassTable` (the resolved stdlib), the modules
    see the base's classes but only their own declarations are resolved,
    so the base's AST is read and never annotated again.
    """

    def __init__(self, modules, base=None):
        self.decls = []  # this run's declarations, in source order
        for module in modules:
            self.decls.extend(module.decls)
        self.table = ClassTable(self.decls, base)
        self.lambda_counter = 0
        self.lambdas = []  # all LambdaExpr encountered, for codegen
        self._current_class = None
        self._current_method = None

    def run(self):
        for decl in self.decls:
            self._resolve_class(decl)
        return self.table

    # ------------------------------------------------------------------

    def _resolve_class(self, decl):
        self._current_class = decl
        self._check_overrides(decl)
        for method in decl.methods:
            method.owner = decl
            if method.body is not None:
                self._resolve_method(decl, method)
        self._current_class = None

    def _check_overrides(self, decl):
        if decl.kind != "class" or decl.superclass in (None, "Object"):
            targets = []
        else:
            targets = list(self.table.superclass_chain(decl.superclass))
        for method in decl.methods:
            if method.is_static:
                continue
            for ancestor in targets:
                for base in ancestor.methods:
                    if base.name != method.name or base.is_static:
                        continue
                    if [t for _, t in base.params] != [
                        t for _, t in method.params
                    ] or base.return_type != method.return_type:
                        raise ResolveError(
                            "%s.%s overrides %s.%s with a different signature"
                            % (decl.name, method.name, ancestor.name, base.name),
                            method.line,
                            method.column,
                        )

    def _resolve_method(self, decl, method):
        self._current_method = method
        scope = _Scope()
        for name, type_name in method.params:
            self._check_type(type_name, method)
            scope.declare(name, type_name, method)
        self._check_type(method.return_type, method)
        self._resolve_block(method.body, scope, method)
        if method.return_type != "void" and not self._always_returns(method.body):
            raise ResolveError(
                "%s.%s: missing return on some path" % (decl.name, method.name),
                method.line,
                method.column,
            )
        self._current_method = None

    def _check_type(self, type_name, where):
        base = type_name
        while base.endswith("[]"):
            base = base[:-2]
        if base in ("int", "bool", "void"):
            return
        if not self.table.has(base):
            raise ResolveError(
                "unknown type %s" % type_name, where.line, where.column
            )

    def _always_returns(self, stmt):
        if isinstance(stmt, ast.ReturnStmt):
            return True
        if isinstance(stmt, ast.BlockStmt):
            return any(self._always_returns(s) for s in stmt.stmts)
        if isinstance(stmt, ast.IfStmt):
            return (
                stmt.else_body is not None
                and self._always_returns(stmt.then_body)
                and self._always_returns(stmt.else_body)
            )
        return False

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _resolve_block(self, block, scope, method):
        inner = _Scope(scope)
        for stmt in block.stmts:
            self._resolve_stmt(stmt, inner, method)

    def _resolve_stmt(self, stmt, scope, method):
        if isinstance(stmt, ast.BlockStmt):
            self._resolve_block(stmt, scope, method)
        elif isinstance(stmt, ast.VarStmt):
            self._check_type(stmt.type, stmt)
            if stmt.init is not None:
                init_type = self._resolve_expr(stmt.init, scope, method)
                self._require_assignable(init_type, stmt.type, stmt)
            scope.declare(stmt.name, stmt.type, stmt)
        elif isinstance(stmt, ast.AssignStmt):
            target_type = self._resolve_expr(stmt.target, scope, method, lvalue=True)
            value_type = self._resolve_expr(stmt.value, scope, method)
            self._require_assignable(value_type, target_type, stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._resolve_expr(stmt.expr, scope, method)
        elif isinstance(stmt, ast.IfStmt):
            self._require_bool(
                self._resolve_expr(stmt.condition, scope, method), stmt
            )
            self._resolve_stmt(stmt.then_body, _Scope(scope), method)
            if stmt.else_body is not None:
                self._resolve_stmt(stmt.else_body, _Scope(scope), method)
        elif isinstance(stmt, ast.WhileStmt):
            self._require_bool(
                self._resolve_expr(stmt.condition, scope, method), stmt
            )
            self._resolve_stmt(stmt.body, _Scope(scope), method)
        elif isinstance(stmt, ast.ReturnStmt):
            expected = method.return_type
            if stmt.value is None:
                if expected != "void":
                    raise ResolveError(
                        "missing return value", stmt.line, stmt.column
                    )
            else:
                if expected == "void":
                    raise ResolveError(
                        "void method returns a value", stmt.line, stmt.column
                    )
                value_type = self._resolve_expr(stmt.value, scope, method)
                self._require_assignable(value_type, expected, stmt)
        else:
            raise ResolveError("unknown statement %r" % stmt, stmt.line, stmt.column)

    def _require_assignable(self, value_type, target_type, where):
        if not self.table.assignable(value_type, target_type):
            raise ResolveError(
                "cannot assign %s to %s" % (value_type, target_type),
                where.line,
                where.column,
            )

    def _require_bool(self, type_name, where):
        if type_name != "bool":
            raise ResolveError(
                "condition must be bool, found %s" % type_name,
                where.line,
                where.column,
            )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _resolve_expr(self, expr, scope, method, lvalue=False):
        result = self._resolve_expr_inner(expr, scope, method, lvalue)
        expr.type = result
        return result

    def _resolve_expr_inner(self, expr, scope, method, lvalue):
        if isinstance(expr, ast.IntLit):
            return "int"
        if isinstance(expr, ast.BoolLit):
            return "bool"
        if isinstance(expr, ast.NullLit):
            return "null"
        if isinstance(expr, ast.ThisExpr):
            return self._resolve_this(expr, scope, method)
        if isinstance(expr, ast.NameExpr):
            return self._resolve_name(expr, scope, method, lvalue)
        if isinstance(expr, ast.FieldExpr):
            return self._resolve_field(expr, scope, method, lvalue)
        if isinstance(expr, ast.IndexExpr):
            target_type = self._resolve_expr(expr.target, scope, method)
            if not target_type.endswith("[]"):
                raise ResolveError(
                    "indexing non-array %s" % target_type, expr.line, expr.column
                )
            index_type = self._resolve_expr(expr.index, scope, method)
            if index_type != "int":
                raise ResolveError(
                    "array index must be int", expr.line, expr.column
                )
            return target_type[:-2]
        if isinstance(expr, ast.CallExpr):
            return self._resolve_call(expr, scope, method)
        if isinstance(expr, ast.NewExpr):
            return self._resolve_new(expr, scope, method)
        if isinstance(expr, ast.NewArrayExpr):
            self._check_type(expr.elem_type, expr)
            length_type = self._resolve_expr(expr.length, scope, method)
            if length_type != "int":
                raise ResolveError(
                    "array length must be int", expr.line, expr.column
                )
            return expr.elem_type + "[]"
        if isinstance(expr, ast.UnaryExpr):
            operand = self._resolve_expr(expr.operand, scope, method)
            if expr.op == "-":
                if operand != "int":
                    raise ResolveError("- needs int", expr.line, expr.column)
                return "int"
            if operand != "bool":
                raise ResolveError("! needs bool", expr.line, expr.column)
            return "bool"
        if isinstance(expr, ast.BinaryExpr):
            return self._resolve_binary(expr, scope, method)
        if isinstance(expr, ast.IsExpr):
            self._resolve_expr(expr.operand, scope, method)
            self._check_type(expr.type_name, expr)
            if not _is_ref(expr.operand.type):
                raise ResolveError("is needs a reference", expr.line, expr.column)
            return "bool"
        if isinstance(expr, ast.AsExpr):
            self._resolve_expr(expr.operand, scope, method)
            self._check_type(expr.type_name, expr)
            if not _is_ref(expr.operand.type) or not _is_ref(expr.type_name):
                raise ResolveError(
                    "as needs reference types", expr.line, expr.column
                )
            return expr.type_name
        if isinstance(expr, ast.LambdaExpr):
            return self._resolve_lambda(expr, scope, method)
        if isinstance(expr, ast.SuperExpr):
            raise ResolveError(
                "super is only valid as a call target", expr.line, expr.column
            )
        raise ResolveError("unknown expression %r" % expr, expr.line, expr.column)

    # -- names -------------------------------------------------------------

    def _resolve_this(self, expr, scope, method):
        found = scope.lookup("this")
        if found is not None:
            # Inside a lambda: "this" resolves through the boundary.
            type_name, _node, crossed = found
            for boundary in crossed:
                boundary.captures_this = True
            return type_name
        if method.is_static:
            raise ResolveError(
                "this in a static method", expr.line, expr.column
            )
        return self._current_class.name

    def _resolve_name(self, expr, scope, method, lvalue):
        found = scope.lookup(expr.name)
        if found is not None:
            type_name, node, crossed = found
            if crossed:
                # The variable lives outside at least one lambda: it
                # must be captured by every crossed lambda.
                for boundary in crossed:
                    if all(c[0] != expr.name for c in boundary.captures):
                        boundary.captures.append((expr.name, type_name))
                if lvalue:
                    raise ResolveError(
                        "cannot assign to captured variable %s" % expr.name,
                        expr.line,
                        expr.column,
                    )
                expr.binding = "capture"
            else:
                expr.binding = "local"
            return type_name
        # Field of the enclosing class? Valid in instance methods and in
        # lambdas that can reach an instance ("this" in scope).
        this_lookup = scope.lookup("this")
        if (not method.is_static or this_lookup is not None) and (
            self._current_class is not None
        ):
            field = self.table.find_field(self._current_class.name, expr.name)
            if field is not None:
                owner, decl = field
                if this_lookup is not None:
                    for boundary in this_lookup[2]:
                        boundary.captures_this = True
                expr.binding = "field"
                expr.slot = (owner, decl)
                return decl.type
        # Static field of the enclosing class/object?
        if self._current_class is not None:
            field = self.table.find_field(
                self._current_class.name, expr.name, want_static=True
            )
            if field is not None:
                owner, decl = field
                expr.binding = "static-field"
                expr.slot = (owner, decl)
                return decl.type
        # Class name in static position.
        if self.table.has(expr.name):
            expr.binding = "class"
            return expr.name
        raise ResolveError("unknown name %s" % expr.name, expr.line, expr.column)

    def _resolve_field(self, expr, scope, method, lvalue):
        # Static field access Class.field?
        if isinstance(expr.target, ast.NameExpr):
            local = scope.lookup(expr.target.name)
            if local is None and self.table.has(expr.target.name):
                field = self.table.find_field(
                    expr.target.name, expr.name, want_static=True
                )
                if field is not None:
                    expr.target.binding = "class"
                    expr.target.type = expr.target.name
                    owner, decl = field
                    expr.binding = "static-field"
                    expr.owner = owner
                    return decl.type
        target_type = self._resolve_expr(expr.target, scope, method)
        if target_type.endswith("[]"):
            if expr.name != "length":
                raise ResolveError(
                    "arrays only have .length", expr.line, expr.column
                )
            if lvalue:
                raise ResolveError(
                    "cannot assign to .length", expr.line, expr.column
                )
            expr.binding = "arraylen"
            return "int"
        if not _is_ref(target_type):
            raise ResolveError(
                "field access on %s" % target_type, expr.line, expr.column
            )
        field = self.table.find_field(target_type, expr.name)
        if field is None:
            raise ResolveError(
                "no field %s on %s" % (expr.name, target_type),
                expr.line,
                expr.column,
            )
        owner, decl = field
        expr.binding = "field"
        expr.owner = owner
        return decl.type

    # -- calls --------------------------------------------------------------

    def _resolve_call(self, expr, scope, method):
        if expr.target is None:
            return self._resolve_bare_call(expr, scope, method)
        if isinstance(expr.target, ast.SuperExpr):
            return self._resolve_super_call(expr, scope, method)
        # Static call Class.method(...)?
        if isinstance(expr.target, ast.NameExpr):
            local = scope.lookup(expr.target.name)
            if local is None and self.table.has(expr.target.name):
                found = self.table.find_static_method(expr.target.name, expr.name)
                if found is not None:
                    expr.target.binding = "class"
                    expr.target.type = expr.target.name
                    owner, decl = found
                    expr.dispatch = "static"
                    expr.owner = owner
                    self._check_args(expr, decl, scope, method)
                    return decl.return_type
        target_type = self._resolve_expr(expr.target, scope, method)
        if not _is_ref(target_type) or target_type.endswith("[]"):
            raise ResolveError(
                "method call on %s" % target_type, expr.line, expr.column
            )
        found = self.table.find_method(target_type, expr.name)
        if found is None:
            raise ResolveError(
                "no method %s on %s" % (expr.name, target_type),
                expr.line,
                expr.column,
            )
        owner, decl = found
        owner_decl = self.table.decl(owner)
        target_decl = self.table.decl(target_type)
        is_iface = (
            target_decl.kind == "trait"
            if target_decl is not None
            else (owner_decl is not None and owner_decl.kind == "trait")
        )
        expr.dispatch = "interface" if is_iface else "virtual"
        expr.owner = target_type if target_decl is not None else owner
        self._check_args(expr, decl, scope, method)
        return decl.return_type

    def _resolve_bare_call(self, expr, scope, method):
        # Builtins first (they are simple names like print/rand).
        if expr.name in INTRINSIC_TABLE:
            params, ret, _fn = INTRINSIC_TABLE[expr.name]
            if len(expr.args) != len(params):
                raise ResolveError(
                    "%s expects %d args" % (expr.name, len(params)),
                    expr.line,
                    expr.column,
                )
            for arg, param_type in zip(expr.args, params):
                arg_type = self._resolve_expr(arg, scope, method)
                # Intrinsics are int-typed; accept bool where int is due.
                if param_type == "int" and arg_type not in ("int", "bool"):
                    raise ResolveError(
                        "%s needs int args" % expr.name, expr.line, expr.column
                    )
            expr.dispatch = "builtin"
            return ret
        klass = self._current_class
        if klass is not None:
            found = self.table.find_static_method(klass.name, expr.name)
            if found is not None:
                owner, decl = found
                expr.dispatch = "static"
                expr.owner = owner
                self._check_args(expr, decl, scope, method)
                return decl.return_type
            if not method.is_static or scope.lookup("this") is not None:
                found = self.table.find_method(klass.name, expr.name)
                if found is not None:
                    owner, decl = found
                    self._resolve_this(expr, scope, method)  # capture check
                    owner_decl = self.table.decl(owner)
                    expr.dispatch = (
                        "interface"
                        if owner_decl is not None and owner_decl.kind == "trait"
                        else "virtual"
                    )
                    expr.owner = klass.name
                    self._check_args(expr, decl, scope, method)
                    return decl.return_type
        raise ResolveError(
            "unknown function %s" % expr.name, expr.line, expr.column
        )

    def _resolve_super_call(self, expr, scope, method):
        klass = self._current_class
        if klass is None or method.is_static:
            raise ResolveError(
                "super outside an instance method", expr.line, expr.column
            )
        superclass = klass.superclass
        if superclass in (None, "Object"):
            raise ResolveError(
                "%s has no superclass methods" % klass.name,
                expr.line,
                expr.column,
            )
        found = self.table.find_method(superclass, expr.name)
        if found is None:
            raise ResolveError(
                "no method %s on %s" % (expr.name, superclass),
                expr.line,
                expr.column,
            )
        owner, decl = found
        expr.dispatch = "special"
        expr.owner = superclass
        expr.target.type = superclass
        self._check_args(expr, decl, scope, method)
        return decl.return_type

    def _check_args(self, expr, decl, scope, method):
        if len(expr.args) != len(decl.params):
            raise ResolveError(
                "%s expects %d args, got %d"
                % (expr.name, len(decl.params), len(expr.args)),
                expr.line,
                expr.column,
            )
        for arg, (_pname, ptype) in zip(expr.args, decl.params):
            arg_type = self._resolve_expr(arg, scope, method)
            self._require_assignable(arg_type, ptype, expr)

    def _resolve_new(self, expr, scope, method):
        decl = self.table.decl(expr.class_name)
        if decl is None or decl.kind != "class":
            raise ResolveError(
                "cannot instantiate %s" % expr.class_name, expr.line, expr.column
            )
        ctor = None
        for m in decl.methods:
            if m.name == "init" and not m.is_static:
                ctor = m
                break
        if ctor is None:
            found = self.table.find_method(expr.class_name, "init")
            if found is not None:
                ctor = found[1]
        if ctor is not None:
            expr.has_ctor = True
            self._check_args_ctor(expr, ctor, scope, method)
        else:
            expr.has_ctor = False
            if expr.args:
                raise ResolveError(
                    "%s has no constructor" % expr.class_name,
                    expr.line,
                    expr.column,
                )
        return expr.class_name

    def _check_args_ctor(self, expr, ctor, scope, method):
        if len(expr.args) != len(ctor.params):
            raise ResolveError(
                "constructor of %s expects %d args"
                % (expr.class_name, len(ctor.params)),
                expr.line,
                expr.column,
            )
        for arg, (_pname, ptype) in zip(expr.args, ctor.params):
            arg_type = self._resolve_expr(arg, scope, method)
            self._require_assignable(arg_type, ptype, expr)

    # -- operators ------------------------------------------------------------

    def _resolve_binary(self, expr, scope, method):
        left = self._resolve_expr(expr.left, scope, method)
        right = self._resolve_expr(expr.right, scope, method)
        op = expr.op
        if op in ("&&", "||"):
            if left != "bool" or right != "bool":
                raise ResolveError(
                    "%s needs bool operands" % op, expr.line, expr.column
                )
            return "bool"
        if op in ("+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"):
            if left != "int" or right != "int":
                raise ResolveError(
                    "%s needs int operands, found %s and %s" % (op, left, right),
                    expr.line,
                    expr.column,
                )
            return "int"
        if op in ("<", "<=", ">", ">="):
            if left != "int" or right != "int":
                raise ResolveError(
                    "%s needs int operands" % op, expr.line, expr.column
                )
            return "bool"
        if op in ("==", "!="):
            ok = (
                (left == right and left in ("int", "bool"))
                or (left == "null" and (_is_ref(right) or right == "null"))
                or (right == "null" and _is_ref(left))
                or (
                    _is_ref(left)
                    and _is_ref(right)
                    and (
                        self.table.assignable(left, right)
                        or self.table.assignable(right, left)
                    )
                )
            )
            if not ok:
                raise ResolveError(
                    "cannot compare %s and %s" % (left, right),
                    expr.line,
                    expr.column,
                )
            return "bool"
        raise ResolveError("unknown operator %s" % op, expr.line, expr.column)

    # -- lambdas --------------------------------------------------------------

    def _resolve_lambda(self, expr, scope, method):
        key = (
            tuple(_normalize_param(t) for _n, t in expr.params),
            _normalize(expr.return_type),
        )
        interface = LAMBDA_INTERFACES.get(key)
        if interface is None:
            raise ResolveError(
                "no function trait for signature %r" % (key,),
                expr.line,
                expr.column,
            )
        if not self.table.has(interface):
            raise ResolveError(
                "function trait %s missing (is the stdlib loaded?)" % interface,
                expr.line,
                expr.column,
            )
        expr.interface = interface
        expr.class_name = "$Lambda%d" % self.lambda_counter
        self.lambda_counter += 1
        self.lambdas.append(expr)
        inner = _Scope(scope, boundary=expr)
        if not method.is_static and scope.lookup("this") is None:
            # Make the enclosing instance reachable inside the lambda.
            outer_this = _Scope(scope)
            outer_this.declare("this", self._current_class.name, method)
            inner = _Scope(outer_this, boundary=expr)
        for name, type_name in expr.params:
            self._check_type(type_name, expr)
            inner.declare(name, type_name, expr)
        self._check_type(expr.return_type, expr)
        body_scope = _Scope(inner)
        proxy = _LambdaMethodProxy(expr, method.is_static)
        for stmt in expr.body.stmts:
            self._resolve_stmt(stmt, body_scope, proxy)
        if expr.return_type != "void" and not self._always_returns(expr.body):
            raise ResolveError(
                "lambda missing return on some path", expr.line, expr.column
            )
        return interface


class _LambdaMethodProxy:
    """Stands in for the enclosing MethodDecl while resolving a lambda
    body: return statements check against the lambda's return type, and
    'this'/static lookups behave like an instance context (the capture
    machinery decides what 'this' means)."""

    def __init__(self, lambda_expr, enclosing_is_static):
        self.return_type = lambda_expr.return_type
        # A lambda in a static method has no instance to capture; one in
        # an instance method behaves like instance code (the capture
        # machinery routes "this" through the $this field).
        self.is_static = enclosing_is_static
        self.line = lambda_expr.line
        self.column = lambda_expr.column
