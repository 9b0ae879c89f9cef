# entry: Main.run
# pinned: a callee that cannot be compiled must not fail its caller's
# compile. Main.helper makes a special call on a phi of NEW Box / NULL,
# so its graph cannot be built (the receiver may be null). Main.run
# calls helper in a loop; inlining tried to build helper's graph, the
# error escaped the inliner, and Main.run stayed interpreted as well.
# Now that callsite stays a generic call and Main.run compiles. From
# the third call on, one helper call inside Main.run's loop gets the
# NULL receiver and traps ("special call Box.seven") in the
# interpreted helper.
abstract class Main {
  static field count: int
  static method run() -> int {
    # locals: 0 = i, 1 = sum
    GETSTATIC Main count
    CONST 1
    ADD
    PUTSTATIC Main count
    CONST 0
    STORE 0
    CONST 0
    STORE 1
    GOTO test
  body:
    LOAD 1
    LOAD 0
    GETSTATIC Main count
    ADD
    INVOKESTATIC Main helper
    ADD
    STORE 1
    LOAD 0
    CONST 1
    ADD
    STORE 0
  test:
    LOAD 0
    CONST 5
    LT
    IF body
    LOAD 1
    RETV
  }
  static method helper(int) -> int {
    # locals: 0 = n, 1 = the receiver (NULL when n is 7)
    NEW Box
    STORE 1
    LOAD 0
    CONST 7
    NE
    IF call
    NULL
    STORE 1
  call:
    LOAD 1
    INVOKESPECIAL Box seven
    LOAD 0
    ADD
    RETV
  }
}
class Box {
  method seven() -> int {
    CONST 7
    RETV
  }
}
