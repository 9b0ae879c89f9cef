"""Front-end edge cases: tricky but legal programs."""

import pytest

from repro.errors import LexError, ResolveError
from repro.lang import compile_source
from repro.lang.lexer import tokenize
from tests.helpers import run_static


def run_main(source):
    program = compile_source(source)
    result, vm, _ = run_static(program, "Main", "run")
    return result, vm


class TestControlFlowEdges:
    def test_value_method_ending_in_loop(self):
        """A while(cond) loop followed by return on the exit path."""
        result, _ = run_main(
            """
            object Main {
              def run(): int {
                var i: int = 0;
                while (i < 5) {
                  if (i == 3) { return 100 + i; }
                  i = i + 1;
                }
                return i;
              }
            }
            """
        )
        assert result == 103

    def test_deeply_nested_blocks(self):
        result, _ = run_main(
            """
            object Main {
              def run(): int {
                var x: int = 0;
                if (true) { if (true) { if (true) { x = 7; } } }
                while (x < 10) { if (x % 2 == 0) { x = x + 1; } else { x = x + 3; } }
                return x;
              }
            }
            """
        )
        # x: 7 -> 10 (odd adds 3), loop exits at 10.
        assert result == 10

    def test_empty_blocks(self):
        result, _ = run_main(
            "object Main { def run(): int { if (true) { } else { } while (false) { } return 5; } }"
        )
        assert result == 5

    def test_boolean_fields_and_params(self):
        result, _ = run_main(
            """
            class Flag {
              var on: bool;
              def flip(v: bool): bool { this.on = !v; return this.on; }
            }
            object Main {
              def run(): int {
                var f: Flag = new Flag;
                if (f.flip(false)) { return 1; }
                return 0;
              }
            }
            """
        )
        assert result == 1


class TestDispatchEdges:
    def test_trait_diamond_single_default(self):
        """Two paths to one trait: the default resolves unambiguously."""
        result, _ = run_main(
            """
            trait Base { def v(): int { return 3; } }
            trait Left implements Base { }
            trait Right implements Base { }
            class Both implements Left, Right { }
            object Main {
              def run(): int { return new Both().v(); }
            }
            """
        )
        assert result == 3

    def test_override_of_default_method(self):
        result, _ = run_main(
            """
            trait Base { def v(): int { return 3; } }
            class Custom implements Base { def v(): int { return 9; } }
            object Main {
              def run(): int {
                var b: Base = new Custom;
                return b.v();
              }
            }
            """
        )
        assert result == 9

    def test_three_level_super_chain(self):
        result, _ = run_main(
            """
            class A { def f(): int { return 1; } }
            class B extends A { def f(): int { return super.f() * 10 + 2; } }
            class C extends B { def f(): int { return super.f() * 10 + 3; } }
            object Main { def run(): int { return new C().f(); } }
            """
        )
        assert result == 123

    def test_inherited_constructor(self):
        result, _ = run_main(
            """
            class Base {
              var v: int;
              def init(v: int): void { this.v = v; }
            }
            class Sub extends Base { }
            object Main { def run(): int { return new Sub(8).v; } }
            """
        )
        assert result == 8


class TestArraysAndCasts:
    def test_array_of_arrays(self):
        result, _ = run_main(
            """
            object Main {
              def run(): int {
                var grid: int[][] = new int[3][];
                var i: int = 0;
                while (i < 3) { grid[i] = new int[4]; grid[i][i] = i + 1; i = i + 1; }
                return grid[0][0] + grid[1][1] * 10 + grid[2][2] * 100;
              }
            }
            """
        )
        assert result == 321

    def test_object_array_covariant_store(self):
        result, _ = run_main(
            """
            class P { var v: int; }
            object Main {
              def run(): int {
                var objs: Object[] = new Object[2];
                var p: P = new P;
                p.v = 6;
                objs[0] = p;
                var back: P = objs[0] as P;
                return back.v;
              }
            }
            """
        )
        assert result == 6

    def test_is_on_array_typed_value(self):
        result, _ = run_main(
            """
            object Main {
              def run(): int {
                var o: Object = new int[3];
                if (o is int[]) { return 1; }
                return 0;
              }
            }
            """
        )
        assert result == 1


class TestLambdaEdges:
    def test_lambda_returning_lambda(self):
        result, _ = run_main(
            """
            object Main {
              def run(): int {
                var make: IntToObjFn = fun (k: int): Object {
                  return fun (x: int): int => x + k;
                };
                var add5: IntFn1 = make.apply(5) as IntFn1;
                return add5.apply(10);
              }
            }
            """
        )
        assert result == 15

    def test_lambda_in_static_without_this(self):
        result, _ = run_main(
            """
            object Main {
              def run(): int {
                var f: IntFn0 = fun (): int => 42;
                return f.apply();
              }
            }
            """
        )
        assert result == 42

    def test_lambda_cannot_use_this_in_static(self):
        with pytest.raises(ResolveError):
            compile_source(
                """
                object Main {
                  def run(): int {
                    var f: IntFn0 = fun (): int => this.x;
                    return f.apply();
                  }
                }
                """
            )

    def test_two_lambdas_same_signature_distinct_classes(self):
        program = compile_source(
            """
            object Main {
              def run(): int {
                var a: IntFn1 = fun (x: int): int => x + 1;
                var b: IntFn1 = fun (x: int): int => x * 2;
                return a.apply(10) + b.apply(10);
              }
            }
            """
        )
        lambdas = [c for c in program.classes if c.startswith("$Lambda")]
        assert len(lambdas) == 2
        result, _, _ = run_static(program, "Main", "run")
        assert result == 31


class TestNumberLiterals:
    """Number literals are ASCII digits only; other Unicode digits are
    lexical errors with a position, not numbers or a bare ValueError."""

    def test_superscript_digit_after_number(self):
        with pytest.raises(LexError) as info:
            tokenize("var x = 3\u00b2;")
        assert (info.value.line, info.value.column) == (1, 10)

    def test_arabic_indic_digit_is_not_a_number(self):
        with pytest.raises(LexError) as info:
            tokenize("var x = 1;\nvar y = \u0663;")
        assert (info.value.line, info.value.column) == (2, 9)
