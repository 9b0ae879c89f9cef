# entry: Main.main
# pinned: a loop with two entries (an irreducible CFG). Main.walk enters
# its a/b cycle at a (falling through the IF) or at b (taking it), so
# neither block dominates the other. The bytecode verifies and compiles;
# the py tier must refuse it (PyCodegenBailout "irreducible-cfg") and
# run machine code, with the same observables as every other tier.
abstract class Main {
  static field flip: int
  static method main() -> int {
    # Alternate the entry block from one iteration to the next.
    CONST 1
    GETSTATIC Main flip
    SUB
    PUTSTATIC Main flip
    GETSTATIC Main flip
    CONST 5
    INVOKESTATIC Main walk
    RETV
  }
  static method walk(int, int) -> int {
    # locals: 0 = entry selector, 1 = steps left, 2 = accumulator
    CONST 1
    STORE 2
    LOAD 0
    IF b
  a:
    LOAD 2
    CONST 3
    ADD
    STORE 2
    LOAD 1
    CONST 1
    SUB
    STORE 1
    LOAD 1
    CONST 0
    LE
    IF done
  b:
    LOAD 2
    CONST 7
    MUL
    LOAD 1
    XOR
    STORE 2
    GOTO a
  done:
    LOAD 2
    RETV
  }
}
