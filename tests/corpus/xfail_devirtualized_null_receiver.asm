# entry: Main.run
# known open: INVOKEVIRTUAL on a NULL receiver must trap in compiled code
# as it does in the interpreters ("call Box.seven"). From the fourth
# call on, Main.run calls Box.seven on NULL, and the interpreters trap
# at iterations 4 and 5. Box.seven has one implementation, so
# class-hierarchy devirtualization turns the call into a direct one and
# drops the receiver's null test; with an inliner, the inlined body
# drops it too, and the JIT returns 7. Only the configurations without
# devirtualization (no-devirt, opt-none) and the pure interpreter tier
# (interp-predecode) match the interpreter.
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
    INVOKEVIRTUAL Box seven
    RETV
  }
}
class Box {
  method seven() -> int {
    CONST 7
    RETV
  }
}
