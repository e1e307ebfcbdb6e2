"""Explicit-frame step interpreter for MiniJava bytecode.

The interpreter is the "CPU" of the simulated Native-Image runtime.  Design
points that matter for the reproduction:

* **Explicit frames, no host recursion** — deep benchmark recursion (Towers,
  Havlak) cannot hit Python's recursion limit, and threads can be stepped
  cooperatively for the multi-threaded microservice workloads.
* **Pluggable hooks** — the executor (:mod:`repro.runtime.executor`) charges
  page touches for code and image-heap accesses through
  :class:`RuntimeHooks`; the tracing profiler additionally observes basic
  block transitions for Ball–Larus path tracing.
* **Build-time reuse** — the image builder runs class initializers with the
  same interpreter (hooks disabled), exactly like Native Image executes
  ``<clinit>`` methods during heap snapshotting.
* **Decoded once per method** — a method's first call decodes its bytecode
  into ``(opcode, a, b)`` tuples with integer opcodes, string literals
  resolved and a target cache per call site.  The decoded code belongs to
  the interpreter, never to the program, so a run leaves its binary as it
  found it.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Dict, List, Optional

from ..minijava.bytecode import ClassInfo, CompiledMethod, Program
from .values import (
    ArrayInstance,
    ObjectInstance,
    OpsBudgetError,
    ResourceBlob,
    StaticsHolder,
    VMError,
    to_display,
    type_name_of,
)


class RuntimeHooks:
    """Observation points used by executors and profilers.

    The base class is all no-ops; subclasses override what they need.
    :attr:`Interpreter.ops_executed` is current when a method-enter,
    method-exit or builtin hook (print, respond, resource) runs; the
    per-instruction hooks (object access, constants, allocation, blocks)
    may see it lag.
    """

    def on_method_enter(self, frame: "Frame", caller: Optional["Frame"],
                        thread: "ThreadState") -> None:
        """A new frame was pushed (after locals were bound)."""

    def on_method_exit(self, frame: "Frame", thread: "ThreadState") -> None:
        """A frame is about to be popped (return executed)."""

    def on_object_access(self, obj: Any, op: str, thread: "ThreadState") -> None:
        """A field/array/static access executed on ``obj``."""

    def on_const_str(self, sid: int) -> None:
        """A string-literal constant was materialized (code-section constant)."""

    def on_const_obj(self, token: str) -> None:
        """A PGO-folded code constant was materialized (heap-rooted object)."""

    def on_allocate(self, obj: Any) -> None:
        """A new object or array was allocated at runtime."""

    def on_print(self, text: str) -> None:
        """``print``/``println`` output."""

    def on_respond(self, value: Any) -> None:
        """The workload produced its first response (microservices)."""

    def on_resource(self, blob: ResourceBlob) -> None:
        """A resource blob was registered (build-time only in practice)."""

    def leaders_for(self, method: CompiledMethod) -> Optional[frozenset]:
        """Basic-block leader pcs for ``method`` or None when not tracing.

        Asked once per method and interpreter, when the method is decoded.
        """
        return None

    def on_block(self, frame: "Frame", leader_pc: int, thread: "ThreadState") -> None:
        """Control entered the basic block starting at ``leader_pc``."""


class Frame:
    """One activation record.

    ``code`` is the method's decoded code; ``pc`` indexes it and is current
    whenever the frame is suspended (by a call, a builtin or the end of a
    step).
    """

    __slots__ = ("method", "code", "pc", "stack", "locals", "context", "leaders",
                 "trace_state", "discard_result")

    def __init__(self, method: CompiledMethod, code: List[tuple],
                 slots: List[Any], leaders: Optional[frozenset]) -> None:
        self.method = method
        self.code = code
        self.pc = 0
        self.stack: List[Any] = []
        self.locals = slots
        self.context: Any = None  # compilation-unit context, set by executors
        self.leaders = leaders
        self.trace_state: Any = None
        self.discard_result = False


class ThreadState:
    """A VM thread: a stack of frames plus status.

    ``thread_id`` numbers an interpreter's threads from 0 in spawn order,
    so what a run records about its threads does not depend on what ran
    before it in the process.
    """

    def __init__(self, entry_frame: Frame, thread_id: int,
                 name: str = "") -> None:
        self.thread_id = thread_id
        self.name = name or f"thread-{self.thread_id}"
        self.frames: List[Frame] = [entry_frame]
        self.done = False
        self.result: Any = None

    @property
    def current(self) -> Frame:
        return self.frames[-1]


_STRING_METHODS: Dict[str, Callable[..., Any]] = {
    "length": lambda s: len(s),
    "charAt": lambda s, i: ord(s[i]),
    "substring": lambda s, a, b: s[a:b],
    "equals": lambda s, o: isinstance(o, str) and s == o,
    "startsWith": lambda s, p: s.startswith(p),
    "endsWith": lambda s, p: s.endswith(p),
    "indexOf": lambda s, o: s.find(o if isinstance(o, str) else chr(o)),
    "contains": lambda s, o: o in s,
    "isEmpty": lambda s: len(s) == 0,
    "concat": lambda s, o: s + to_display(o),
    "toString": lambda s: s,
    "hashCode": lambda s: _java_string_hash(s),
}


def _java_string_hash(s: str) -> int:
    h = 0
    for ch in s:
        h = (31 * h + ord(ch)) & 0xFFFFFFFF
    return h - (1 << 32) if h >= (1 << 31) else h


def _int_div(a: int, b: int) -> int:
    """Java integer division (truncates toward zero)."""
    if b == 0:
        raise VMError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a: int, b: int) -> int:
    """Java remainder (sign follows the dividend)."""
    if b == 0:
        raise VMError("division by zero")
    return a - _int_div(a, b) * b


def _mod(left: Any, right: Any) -> Any:
    if isinstance(left, float) or isinstance(right, float):
        return math.fmod(left, right)
    return _int_mod(left, right)


def _equals(left: Any, right: Any) -> bool:
    if left is None or right is None:
        return left is right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    return left is right


# Integer opcodes of decoded code.  ``step`` tests them in this order, most
# frequently executed first.
(_LOAD, _GETFIELD, _CONST, _JMP_FALSE, _STORE, _ADD, _CALL, _ALOAD, _ASTORE,
 _POP, _RET, _JUMP, _PUTFIELD, _SUB, _BINARY, _DUP, _LT, _GT, _GE, _LE, _MUL,
 _GETSTATIC, _PUTSTATIC, _CONST_STR, _JMP_TRUE, _ARRAYLEN, _UNARY, _BUILTIN,
 _NEW, _NEWARRAY, _CONST_OBJ, _DIV, _DUP2, _DUP_X1, _DUP_X2, _INSTANCEOF,
 _CHECKCAST, _STR_CONCAT, _UNKNOWN) = range(39)

#: bytecode ops decoded as ``(opcode, args[0], args[1])``, absent args None
_PLAIN_OPS: Dict[str, int] = {
    "LOAD": _LOAD, "STORE": _STORE, "CONST_INT": _CONST,
    "CONST_DOUBLE": _CONST, "CONST_BOOL": _CONST, "CONST_NULL": _CONST,
    "CONST_OBJ": _CONST_OBJ, "GETFIELD": _GETFIELD, "PUTFIELD": _PUTFIELD,
    "GETSTATIC": _GETSTATIC, "PUTSTATIC": _PUTSTATIC, "ALOAD": _ALOAD,
    "ASTORE": _ASTORE, "ARRAYLEN": _ARRAYLEN, "NEWARRAY": _NEWARRAY,
    "NEW": _NEW, "ADD": _ADD, "SUB": _SUB, "MUL": _MUL, "DIV": _DIV,
    "LT": _LT, "LE": _LE, "GT": _GT, "GE": _GE, "JUMP": _JUMP,
    "JMP_FALSE": _JMP_FALSE, "JMP_TRUE": _JMP_TRUE, "DUP": _DUP,
    "DUP2": _DUP2, "DUP_X1": _DUP_X1, "DUP_X2": _DUP_X2, "POP": _POP,
    "BUILTIN": _BUILTIN, "INSTANCEOF": _INSTANCEOF, "CHECKCAST": _CHECKCAST,
    "STR_CONCAT": _STR_CONCAT,
}

#: the less frequent binary and unary ops, decoded as ``(opcode, fn, None)``
_BINARY_FNS: Dict[str, Callable[[Any, Any], Any]] = {
    "EQ": _equals,
    "NE": lambda left, right: not _equals(left, right),
    "MOD": _mod,
    "BAND": operator.and_,
    "BOR": operator.or_,
    "BXOR": operator.xor,
    "SHL": operator.lshift,
    "SHR": operator.rshift,
}
_UNARY_FNS: Dict[str, Callable[[Any], Any]] = {
    "NEG": operator.neg,
    "NOT": operator.not_,
    "BNOT": operator.invert,
    "I2D": float,
    "D2I": int,
}


class _Code:
    """A method decoded for one interpreter."""

    __slots__ = ("method", "code", "num_params", "padding", "leaders")

    def __init__(self, method: CompiledMethod, code: List[tuple],
                 leaders: Optional[frozenset]) -> None:
        self.method = method
        self.code = code
        self.num_params = method.num_params
        #: locals beyond the parameters, appended to the arguments on entry
        self.padding = [None] * (method.num_slots - method.num_params)
        self.leaders = leaders


class _CallSite:
    """A call instruction and the targets it resolved on execution.

    Static, super and constructor calls resolve once; a virtual call keeps
    one target per receiver class it has seen.
    """

    __slots__ = ("op", "owner", "name", "virtual", "discard", "callee", "targets")

    def __init__(self, op: str, owner: str, name: str) -> None:
        self.op = op
        self.owner = owner
        self.name = name
        self.virtual = op == "CALL_VIRTUAL"
        # Constructors are void: the DUP before the args keeps the new
        # object on the caller stack, so drop the pushed null on return.
        self.discard = op == "CALL_CTOR"
        self.callee: Optional[_Code] = None
        self.targets: Dict[ClassInfo, _Code] = {}


class Interpreter:
    """Executes a compiled program, cooperatively scheduling its threads."""

    def __init__(
        self,
        program: Program,
        statics: Optional[Dict[str, StaticsHolder]] = None,
        hooks: Optional[RuntimeHooks] = None,
        max_ops: int = 50_000_000,
        quantum: int = 500,
    ) -> None:
        self.program = program
        self.hooks = hooks or RuntimeHooks()
        self.statics = statics if statics is not None else make_statics(program)
        self.threads: List[ThreadState] = []
        self.ops_executed = 0
        self.max_ops = max_ops
        self.quantum = quantum
        self.stop_requested = False
        self.output: List[str] = []
        self._yield_requested = False
        #: id(method) -> its decoded code (the entry keeps the method alive)
        self._decoded: Dict[int, _Code] = {}

    # -- thread management ---------------------------------------------------

    def spawn(self, method: CompiledMethod, args: Optional[List[Any]] = None,
              name: str = "") -> ThreadState:
        """Create a new runnable thread entering ``method``."""
        decoded = self._code_of(method)
        slots = list(args or [])
        slots += [None] * (method.num_slots - len(slots))
        frame = Frame(method, decoded.code, slots, decoded.leaders)
        thread = ThreadState(frame, len(self.threads), name=name)
        self.threads.append(thread)
        self.hooks.on_method_enter(frame, None, thread)
        return thread

    def spawn_main(self) -> ThreadState:
        return self.spawn(self.program.entry_method(), [], name="main")

    # -- scheduling ------------------------------------------------------------

    def run(self) -> None:
        """Round-robin all threads to completion (or stop/ops-budget)."""
        while not self.stop_requested:
            runnable = [t for t in self.threads if not t.done]
            if not runnable:
                return
            for thread in runnable:
                if self.stop_requested:
                    return
                self.step(thread, self.quantum)

    def run_single(self, method: CompiledMethod, args: Optional[List[Any]] = None) -> Any:
        """Run one method on a dedicated thread to completion; return result."""
        thread = self.spawn(method, args, name=f"call:{method.name}")
        while not thread.done and not self.stop_requested:
            self.step(thread, self.quantum)
        return thread.result

    # -- decoding ----------------------------------------------------------------

    def _code_of(self, method: CompiledMethod) -> _Code:
        decoded = self._decoded.get(id(method))
        if decoded is None:
            decoded = _Code(method, self._decode(method),
                            self.hooks.leaders_for(method))
            self._decoded[id(method)] = decoded
        return decoded

    def _decode(self, method: CompiledMethod) -> List[tuple]:
        code: List[tuple] = []
        for instr in method.code:
            op, args = instr.op, instr.args
            if op in _PLAIN_OPS:
                a, b = (tuple(args) + (None, None))[:2]
                code.append((_PLAIN_OPS[op], a, b))
            elif op == "CONST_STR":
                code.append((_CONST_STR, args[0],
                             self.program.string_literals[args[0]]))
            elif op == "RET_VAL" or op == "RET_VOID":
                code.append((_RET, op == "RET_VAL", None))
            elif op in _BINARY_FNS:
                code.append((_BINARY, _BINARY_FNS[op], None))
            elif op in _UNARY_FNS:
                code.append((_UNARY, _UNARY_FNS[op], None))
            elif op == "CALL_STATIC" or op == "CALL_SUPER":
                owner, name, argc = args
                # A super call pops its receiver as well.
                code.append((_CALL, _CallSite(op, owner, name),
                             argc + (op == "CALL_SUPER")))
            elif op == "CALL_VIRTUAL":
                name, argc = args
                code.append((_CALL, _CallSite(op, "", name), argc + 1))
            elif op == "CALL_CTOR":
                owner, argc = args
                code.append((_CALL, _CallSite(op, owner, "<init>"), argc + 1))
            else:
                code.append((_UNKNOWN, op, None))
        return code

    # -- core step loop ----------------------------------------------------------

    def step(self, thread: ThreadState, budget: int) -> None:
        """Execute up to ``budget`` instructions on ``thread``.

        The loop keeps pc, stack, locals and the op count in local
        variables.  It writes ``frame.pc`` and :attr:`ops_executed` back
        before a call, a return, a builtin or a statics access (at build
        time a statics access may run a ``<clinit>`` on this interpreter),
        and when it stops or raises.
        """
        self._yield_requested = False
        if budget <= 0 or thread.done:
            return
        hooks = self.hooks
        on_block = hooks.on_block
        on_access = hooks.on_object_access
        statics = self.statics
        frames = thread.frames
        frame = frames[-1]
        code = frame.code
        pc = frame.pc
        stack = frame.stack
        slots = frame.locals
        leaders = frame.leaders
        ops = self.ops_executed
        max_ops = self.max_ops
        end = ops + budget  # the op count that spends this step's budget
        stop = min(end, max_ops)
        try:
            while True:
                if ops >= stop:
                    if ops >= end:
                        return
                    raise OpsBudgetError(max_ops)
                if leaders is not None and pc in leaders:
                    on_block(frame, pc, thread)
                ops += 1
                op, a, b = code[pc]
                pc += 1

                if op == _LOAD:
                    stack.append(slots[a])
                elif op == _GETFIELD:
                    obj = stack[-1]
                    if obj is None:
                        raise VMError(self._err(frame, pc, "null dereference (GETFIELD)"))
                    on_access(obj, "GETFIELD", thread)
                    if not isinstance(obj, ObjectInstance):
                        raise VMError(self._err(frame, pc, f"GETFIELD on {type_name_of(obj)}"))
                    fields = obj.fields
                    stack[-1] = fields[a] if a in fields else obj.get_field(a)
                elif op == _CONST:
                    stack.append(a)
                elif op == _JMP_FALSE:
                    if not stack.pop():
                        pc = a
                elif op == _STORE:
                    slots[a] = stack.pop()
                elif op == _ADD:
                    right = stack.pop()
                    left = stack[-1]
                    if isinstance(left, str) or isinstance(right, str):
                        stack[-1] = to_display(left) + to_display(right)
                    else:
                        stack[-1] = left + right
                elif op == _CALL:
                    # a: the call site; b: values popped, receiver included
                    if b:
                        args = stack[-b:]
                        del stack[-b:]
                    else:
                        args = []
                    if a.virtual:
                        receiver = args[0]
                        callee = (a.targets.get(receiver.klass)
                                  if isinstance(receiver, ObjectInstance) else None)
                        if callee is None:
                            callee = self._dispatch_virtual(a, receiver, args, frame, pc)
                            if callee is None:  # a String method ran in place
                                continue
                    else:
                        callee = a.callee or self._resolve(a, frame, pc)
                    if b != callee.num_params:
                        raise VMError(f"{callee.method.signature} expects "
                                      f"{callee.num_params} args, got {b}")
                    if len(frames) > 4000:
                        raise VMError(f"stack overflow calling {callee.method.signature}")
                    args += callee.padding
                    callee_frame = Frame(callee.method, callee.code, args, callee.leaders)
                    callee_frame.discard_result = a.discard
                    frame.pc = pc
                    frames.append(callee_frame)
                    self.ops_executed = ops
                    hooks.on_method_enter(callee_frame, frame, thread)
                    frame = callee_frame
                    code = callee.code
                    pc = 0
                    stack = callee_frame.stack
                    slots = args
                    leaders = callee.leaders
                elif op == _ALOAD:
                    index = stack.pop()
                    arr = stack[-1]
                    if arr is None:
                        raise VMError(self._err(frame, pc, "null dereference (ALOAD)"))
                    on_access(arr, "ALOAD", thread)
                    if isinstance(arr, ArrayInstance):
                        values = arr.values
                        if type(index) is int and 0 <= index < len(values):
                            stack[-1] = values[index]
                        else:
                            stack[-1] = arr.load(index)  # raises the index error
                    elif isinstance(arr, str):
                        stack[-1] = ord(arr[index])
                    else:
                        raise VMError(self._err(frame, pc, f"ALOAD on {type_name_of(arr)}"))
                elif op == _ASTORE:
                    value = stack.pop()
                    index = stack.pop()
                    arr = stack.pop()
                    if arr is None:
                        raise VMError(self._err(frame, pc, "null dereference (ASTORE)"))
                    on_access(arr, "ASTORE", thread)
                    if not isinstance(arr, ArrayInstance):
                        raise VMError(self._err(frame, pc, f"ASTORE on {type_name_of(arr)}"))
                    values = arr.values
                    if type(index) is int and 0 <= index < len(values):
                        values[index] = value
                    else:
                        arr.store(index, value)  # raises the index error
                elif op == _POP:
                    stack.pop()
                elif op == _RET:
                    value = stack.pop() if a else None
                    frame.pc = pc - 1
                    self.ops_executed = ops
                    hooks.on_method_exit(frame, thread)
                    frames.pop()
                    if not frames:
                        thread.done = True
                        thread.result = value
                        return
                    if not frame.discard_result:
                        frames[-1].stack.append(value)
                    frame = frames[-1]
                    code = frame.code
                    pc = frame.pc
                    stack = frame.stack
                    slots = frame.locals
                    leaders = frame.leaders
                elif op == _JUMP:
                    pc = a
                elif op == _PUTFIELD:
                    value = stack.pop()
                    obj = stack.pop()
                    if obj is None:
                        raise VMError(self._err(frame, pc, "null dereference (PUTFIELD)"))
                    on_access(obj, "PUTFIELD", thread)
                    if not isinstance(obj, ObjectInstance):
                        raise VMError(self._err(frame, pc, f"PUTFIELD on {type_name_of(obj)}"))
                    obj.set_field(a, value)
                elif op == _SUB:
                    right = stack.pop()
                    stack[-1] = stack[-1] - right
                elif op == _BINARY:
                    right = stack.pop()
                    stack[-1] = a(stack[-1], right)
                elif op == _DUP:
                    stack.append(stack[-1])
                elif op == _LT:
                    right = stack.pop()
                    stack[-1] = stack[-1] < right
                elif op == _GT:
                    right = stack.pop()
                    stack[-1] = stack[-1] > right
                elif op == _GE:
                    right = stack.pop()
                    stack[-1] = stack[-1] >= right
                elif op == _LE:
                    right = stack.pop()
                    stack[-1] = stack[-1] <= right
                elif op == _MUL:
                    right = stack.pop()
                    stack[-1] = stack[-1] * right
                elif op == _GETSTATIC or op == _PUTSTATIC:
                    self.ops_executed = ops
                    holder = statics[a]
                    if self.ops_executed != ops:
                        # A <clinit> ran: its ops count toward max_ops but
                        # not toward this step's budget.
                        end += self.ops_executed - ops
                        ops = self.ops_executed
                        stop = min(end, max_ops)
                    if op == _GETSTATIC:
                        on_access(holder, "GETSTATIC", thread)
                        stack.append(holder.get(b))
                    else:
                        on_access(holder, "PUTSTATIC", thread)
                        holder.set(b, stack.pop())
                elif op == _CONST_STR:
                    hooks.on_const_str(a)
                    stack.append(b)
                elif op == _JMP_TRUE:
                    if stack.pop():
                        pc = a
                elif op == _ARRAYLEN:
                    arr = stack[-1]
                    if arr is None:
                        raise VMError(self._err(frame, pc, "null dereference (.length)"))
                    if isinstance(arr, ArrayInstance):
                        on_access(arr, "ARRAYLEN", thread)
                        stack[-1] = len(arr.values)
                    elif isinstance(arr, str):
                        stack[-1] = len(arr)
                    else:
                        raise VMError(self._err(frame, pc, f".length on {type_name_of(arr)}"))
                elif op == _UNARY:
                    stack[-1] = a(stack[-1])
                elif op == _BUILTIN:
                    frame.pc = pc
                    self.ops_executed = ops
                    self._builtin(thread, frame, a, b)
                    if self._yield_requested:
                        return
                elif op == _NEW:
                    obj = ObjectInstance(self.program.get_class(a))
                    hooks.on_allocate(obj)
                    stack.append(obj)
                elif op == _NEWARRAY:
                    arr = ArrayInstance(a, stack.pop())
                    hooks.on_allocate(arr)
                    stack.append(arr)
                elif op == _CONST_OBJ:
                    hooks.on_const_obj(b)
                    stack.append(a)
                elif op == _DIV:
                    right = stack.pop()
                    left = stack[-1]
                    if isinstance(left, float) or isinstance(right, float):
                        if right == 0:
                            raise VMError(self._err(frame, pc, "division by zero"))
                        stack[-1] = left / right
                    else:
                        stack[-1] = _int_div(left, right)
                elif op == _DUP2:
                    stack.extend(stack[-2:])
                elif op == _DUP_X1:
                    stack.insert(-2, stack[-1])
                elif op == _DUP_X2:
                    stack.insert(-3, stack[-1])
                elif op == _INSTANCEOF:
                    stack[-1] = self._instanceof(stack[-1], a)
                elif op == _CHECKCAST:
                    value = stack[-1]
                    if value is not None and not self._castable(value, a):
                        raise VMError(
                            self._err(frame, pc, f"cannot cast {type_name_of(value)} to {a}")
                        )
                elif op == _STR_CONCAT:
                    right = stack.pop()
                    stack[-1] = to_display(stack[-1]) + to_display(right)
                else:  # _UNKNOWN
                    raise VMError(self._err(frame, pc, f"unknown opcode {a}"))
        finally:
            frame.pc = pc
            if ops > self.ops_executed:
                self.ops_executed = ops

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _err(frame: Frame, pc: int, message: str) -> str:
        """``message`` located at the instruction before ``pc``."""
        line = frame.method.code[pc - 1].line
        return f"{message} in {frame.method.signature} (line {line})"

    def _instanceof(self, value: Any, type_name: str) -> bool:
        if value is None:
            return False
        if isinstance(value, ObjectInstance):
            return value.klass.is_subclass_of(type_name)
        return type_name_of(value) == type_name

    def _castable(self, value: Any, type_name: str) -> bool:
        if isinstance(value, ObjectInstance):
            if value.klass.is_subclass_of(type_name):
                return True
            # Downcasts are checked dynamically; an upcast target that is a
            # superclass is also fine (handled above). Also allow casting to
            # any class the object could be viewed as via hierarchy.
            return False
        if isinstance(value, str):
            return type_name == "String"
        if isinstance(value, ArrayInstance):
            return type_name == value.type_name or type_name.endswith("[]")
        return type_name_of(value) == type_name

    # -- calls ----------------------------------------------------------------------

    def _resolve(self, site: _CallSite, frame: Frame, pc: int) -> _Code:
        """The one target of a static, super or constructor call."""
        if site.op == "CALL_STATIC":
            method = self._find_static(site.owner, site.name)
        elif site.op == "CALL_SUPER":
            method = self.program.get_class(site.owner).lookup_method(site.name)
            if method is None:
                raise VMError(self._err(
                    frame, pc, f"no super method {site.owner}.{site.name}"))
        else:
            method = self.program.get_class(site.owner).methods["<init>"]
        site.callee = self._code_of(method)
        return site.callee

    def _dispatch_virtual(self, site: _CallSite, receiver: Any, args: List[Any],
                          frame: Frame, pc: int) -> Optional[_Code]:
        """Resolve a virtual call on a receiver class the site has not seen.

        A String receiver runs its method in place, pushes the result and
        returns None.
        """
        name = site.name
        if receiver is None:
            raise VMError(self._err(frame, pc, f"null dereference calling {name}"))
        if isinstance(receiver, str):
            frame.stack.append(self._string_method(frame, pc, receiver, name, args[1:]))
            return None
        if not isinstance(receiver, ObjectInstance):
            raise VMError(
                self._err(frame, pc, f"cannot call {name} on {type_name_of(receiver)}")
            )
        method = receiver.klass.lookup_method(name)
        if method is None or method.is_static:
            raise VMError(
                self._err(frame, pc, f"no method {name} on {receiver.klass.name}")
            )
        callee = site.targets[receiver.klass] = self._code_of(method)
        return callee

    def _find_static(self, cls_name: str, name: str) -> CompiledMethod:
        cls: Optional[ClassInfo] = self.program.get_class(cls_name)
        while cls is not None:
            method = cls.methods.get(name)
            if method is not None and method.is_static:
                return method
            cls = cls.superclass
        raise VMError(f"no static method {cls_name}.{name}")

    def _string_method(self, frame: Frame, pc: int, receiver: str, name: str,
                       call_args: List[Any]) -> Any:
        handler = _STRING_METHODS.get(name)
        if handler is None:
            raise VMError(self._err(frame, pc, f"no String method {name}"))
        try:
            return handler(receiver, *call_args)
        except IndexError:
            raise VMError(self._err(frame, pc, f"String.{name} index out of bounds"))

    # -- builtins -----------------------------------------------------------------

    def _builtin(self, thread: ThreadState, frame: Frame, name: str, argc: int) -> None:
        stack = frame.stack
        call_args = _pop_n(stack, argc)
        if name == "println":
            text = to_display(call_args[0])
            self.output.append(text)
            self.hooks.on_print(text + "\n")
            stack.append(None)
        elif name == "print":
            text = to_display(call_args[0])
            self.output.append(text)
            self.hooks.on_print(text)
            stack.append(None)
        elif name == "sqrt":
            stack.append(math.sqrt(call_args[0]))
        elif name == "pow":
            stack.append(math.pow(call_args[0], call_args[1]))
        elif name == "abs":
            stack.append(abs(call_args[0]))
        elif name == "floor":
            stack.append(float(math.floor(call_args[0])))
        elif name == "ceil":
            stack.append(float(math.ceil(call_args[0])))
        elif name == "min":
            stack.append(min(call_args))
        elif name == "max":
            stack.append(max(call_args))
        elif name == "intOf":
            value = call_args[0]
            stack.append(int(value) if not isinstance(value, str) else int(value.strip()))
        elif name == "doubleOf":
            value = call_args[0]
            stack.append(float(value) if not isinstance(value, str) else float(value.strip()))
        elif name == "spawn":
            cls_name, method_name = call_args
            method = self._find_static(cls_name, method_name)
            self.spawn(method, [], name=f"{cls_name}.{method_name}")
            stack.append(None)
        elif name == "respond":
            self.hooks.on_respond(call_args[0])
            stack.append(None)
        elif name == "resource":
            blob = ResourceBlob(call_args[0], call_args[1])
            self.hooks.on_resource(blob)
            stack.append(blob)
        elif name == "yieldThread":
            self._yield_requested = True
            stack.append(None)
        else:
            raise VMError(self._err(frame, frame.pc, f"unknown builtin {name}"))


def _pop_n(stack: List[Any], n: int) -> List[Any]:
    if n == 0:
        return []
    args = stack[-n:]
    del stack[-n:]
    return args


def make_statics(program: Program) -> Dict[str, StaticsHolder]:
    """Fresh static areas with default values for every class."""
    statics: Dict[str, StaticsHolder] = {}
    for name, cls in program.classes.items():
        fields = cls.static_fields
        statics[name] = StaticsHolder(
            name, [f.name for f in fields], [f.default_value() for f in fields]
        )
    return statics
