# entry: Main.run
# pinned: INVOKESPECIAL on a NULL receiver must trap in compiled code as
# it does in the interpreters ("special call Box.seven"), although the
# callee never reads `this`. From the fourth call on, Main.run calls
# Box.seven on NULL; lowering used to emit a plain call and inlining
# dropped the call altogether, so the JIT returned 7 where the
# interpreter trapped. A receiver whose stamp is not non-null now keeps
# the method out of compiled code.
abstract class Main {
  static field count: int
  static method run() -> int {
    # locals: 0 = the receiver
    GETSTATIC Main count
    CONST 1
    ADD
    PUTSTATIC Main count
    NEW Box
    STORE 0
    GETSTATIC Main count
    CONST 4
    LT
    IF call
    NULL
    STORE 0
  call:
    LOAD 0
    INVOKESPECIAL Box seven
    RETV
  }
}
class Box {
  method seven() -> int {
    CONST 7
    RETV
  }
}
