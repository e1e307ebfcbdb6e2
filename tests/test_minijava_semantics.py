"""Semantic-analysis and front-end error-path tests."""

import hashlib

import pytest

from repro.minijava import compile_source
from repro.minijava.errors import CompileError, LexError, SemanticError
from repro.vm import Interpreter, VMError
from repro.workloads import (
    AWFY_NAMES,
    MICROSERVICE_NAMES,
    awfy_workload,
    microservice_workload,
)

from conftest import run_source


class TestClassTableErrors:
    def test_duplicate_class(self):
        with pytest.raises((SemanticError, ValueError)):
            compile_source("class A { } class A { }")

    def test_duplicate_field(self):
        with pytest.raises(SemanticError):
            compile_source("class A { int x; int x; }")

    def test_duplicate_method(self):
        with pytest.raises(SemanticError):
            compile_source("class A { void f() { } void f() { } }")

    def test_no_overloading(self):
        with pytest.raises(SemanticError):
            compile_source("class A { void f() { } void f(int x) { } }")

    def test_two_constructors_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("class A { A() { } A(int x) { } }")

    def test_duplicate_parameter(self):
        with pytest.raises(SemanticError):
            compile_source("class A { void f(int a, int a) { } }")

    def test_reserved_class_name(self):
        # "String" is a keyword, so this dies in the parser; a non-keyword
        # collision would be caught by semantic analysis.
        from repro.minijava.errors import MiniJavaError

        with pytest.raises(MiniJavaError):
            compile_source("class String { }")

    def test_unknown_superclass(self):
        with pytest.raises((SemanticError, ValueError)):
            compile_source("class A extends Ghost { }")

    def test_inheritance_cycle(self):
        with pytest.raises((SemanticError, ValueError)):
            compile_source("class A extends B { } class B extends A { }")

    def test_break_outside_loop(self):
        with pytest.raises(SemanticError):
            compile_source("class A { void f() { break; } }")

    def test_continue_inside_if_outside_loop(self):
        with pytest.raises(SemanticError):
            compile_source("class A { void f() { if (true) continue; } }")


class TestNameResolutionErrors:
    def test_unknown_variable(self):
        with pytest.raises(CompileError):
            compile_source("class A { int f() { return ghost; } }")

    def test_unknown_function(self):
        with pytest.raises(CompileError):
            compile_source("class A { void f() { ghostCall(); } }")

    def test_unknown_static_field(self):
        with pytest.raises(CompileError):
            compile_source("class B { } class A { int f() { return B.ghost; } }")

    def test_unknown_static_method(self):
        with pytest.raises(CompileError):
            compile_source("class B { } class A { void f() { B.ghost(); } }")

    def test_this_in_static_context(self):
        with pytest.raises(CompileError):
            compile_source("class A { int x; static int f() { return this.x; } }")

    def test_super_without_superclass(self):
        with pytest.raises((CompileError, SemanticError)):
            compile_source("class A { void f() { super.g(); } }")

    def test_instance_method_from_static(self):
        with pytest.raises(CompileError):
            compile_source("class A { void g() { } static void f() { g(); } }")

    def test_unknown_class_in_new(self):
        with pytest.raises(CompileError):
            compile_source("class A { void f() { Object x = new Ghost(); } }")

    def test_builtin_arity_checked(self):
        with pytest.raises(CompileError):
            compile_source("class A { void f() { println(1, 2); } }")

    def test_unknown_assignment_target(self):
        with pytest.raises(CompileError):
            compile_source("class A { void f() { ghost = 1; } }")


class TestShadowing:
    def test_local_shadows_field(self):
        source = """
        class Main {
            static int run() { return 0; }
            static int main() { return new Helper().value(); }
        }
        class Helper {
            int x = 10;
            int value() { int x = 5; return x; }
        }
        """
        assert run_source(source)[0] == 5

    def test_param_shadows_field(self):
        source = """
        class Helper { int x = 10; int value(int x) { return x; } }
        class Main { static int main() { return new Helper().value(3); } }
        """
        assert run_source(source)[0] == 3

    def test_local_shadows_class_name_for_field_access(self):
        source = """
        class Box { static int tag = 1; int v = 7; }
        class Main {
            static int main() {
                Box Box = new Box();
                return Box.v;  // the local, not the class
            }
        }
        """
        assert run_source(source)[0] == 7

    def test_field_and_static_of_same_class(self):
        source = """
        class C {
            static int shared = 100;
            int own = 5;
            int total() { return shared + own; }
        }
        class Main { static int main() { return new C().total(); } }
        """
        assert run_source(source)[0] == 105


class TestRuntimeErrors:
    def test_missing_field_on_object(self):
        source = """
        class A { int x; }
        class B { int y; }
        class Main {
            static int main() {
                Object o = new B();
                A a = (A) o;
                return 0;
            }
        }
        """
        with pytest.raises(VMError):
            run_source(source)

    def test_stack_overflow_guard(self):
        source = """
        class Main {
            static int loop(int n) { return loop(n + 1); }
            static int main() { return loop(0); }
        }
        """
        with pytest.raises(VMError):
            run_source(source)

    def test_op_budget_guard(self):
        source = "class Main { static int main() { while (true) { } return 0; } }"
        program = compile_source(source)
        interp = Interpreter(program, max_ops=10_000)
        with pytest.raises(VMError):
            interp.run_single(program.entry_method())

    def test_virtual_call_on_int(self):
        source = """
        class Main { static int main() { Object o = null; int x = 3; return 0; } }
        """
        run_source(source)  # baseline: fine

    def test_call_missing_virtual_method(self):
        source = """
        class A { }
        class Main {
            static int main() {
                A a = new A();
                return a.ghost();
            }
        }
        """
        with pytest.raises(VMError):
            run_source(source)


class TestTypedErrors:
    """Malformed literals raise :class:`LexError`, never a bare ``ValueError``."""

    @pytest.mark.parametrize("literal", ["0x", "\u00b2"])
    def test_malformed_number_in_a_method(self, literal):
        with pytest.raises(LexError):
            compile_source(f"class Main {{ static int main() {{ return {literal}; }} }}")


def program_dump(program):
    """A canonical text dump of everything a compiled :class:`Program` holds."""
    lines = [f"main {program.main_class}", f"strings {program.string_literals!r}"]
    for cls in program.classes.values():
        lines.append(f"class {cls.name} extends {cls.superclass_name} line {cls.line}")
        for kind, fields in (("instance", cls.instance_fields), ("static", cls.static_fields)):
            for info in fields:
                lines.append(f"  {kind} {info.declared_in}.{info.name}: {info.type_name}"
                             f" final={info.is_final}")
        methods = list(cls.methods.values()) + ([cls.clinit] if cls.clinit else [])
        for method in methods:
            lines.append(f"  method {method.signature} static={method.is_static}"
                         f" ctor={method.is_ctor} returns={method.returns_value}"
                         f" slots={method.num_slots} line={method.line}")
            lines.extend(f"    {instr.op} {instr.args!r} {instr.line}" for instr in method.code)
    return "\n".join(lines)


#: Compiled programs of the 17 workloads; the dump's line numbers also pin
#: the lexer's line tracking.
PROGRAM_SHA256 = {
    "Bounce": "5342e27124a79c2177e6caad0bba5dc8bd21f2884124ce13ece358c8a75e55d6",
    "CD": "1497d7dd429882c97fa91226b2d73fd85967e5e3e6f5c17ec7879fb2f94d1eaa",
    "DeltaBlue": "d8da1e7a013fc78a87a90b47e80fdfd30ca5b86dae15015998e7c439c14242bd",
    "Havlak": "7b9a9ea38c49cbe30891f0800b768a24432963e0c6de097fa16c1e7fafcfabac",
    "Json": "a21113962d76bf7a47f91c0dfd466d9647bf7343991f2a0d4593842e30b16f27",
    "List": "44d12501e7703ae168ae71f68c8e2bb84943a994200dad18125b2121917bc343",
    "Mandelbrot": "d640978a6b9c4cba3618402b1e116912c9378bfc86e98e656c16fbac7da4e457",
    "NBody": "2630bbefd4703a81bef873e97f2b334382d916397c6bfc389749d4af5bfcfcaf",
    "Permute": "c58c7db0f9128d2eb845ccca2ada01c2f61aa9df5459b5d9b343c7caf48b54c8",
    "Queens": "6d2c83c96bca8bead4ff0153ba072c28c103d54b4be1da5e987ea2c659b11cb6",
    "Richards": "1bbcc111d0556317052d60f7659dbb45242eb887ec708ad0c4f0b5a5d1df8608",
    "Sieve": "e59a0480061921818e71e652307c0c8357e2f6dae0af0e99f08d6531954b6a90",
    "Storage": "039fc5f6edd090ec0a8255fd81cdf88c1cd1ed15e60ff3020260da878bf9ca3a",
    "Towers": "efbf61303da5fa1483ac205c815e3a515cc6e1fb90b9e11f74f5669a4078deba",
    "micronaut": "aee8036bf6a7d2c7d7e513b0b4e81fca0d24b795fdcf971fca8e5b19d32950bb",
    "quarkus": "0af0f848c75cdbbfa3cd64347a9a56b895a2223822c70c4422f4dd9176fe952d",
    "spring": "7432b643e36563ac83aba75f7ae98992476e444172363171da3e5e4f09bade7e",
}


class TestWorkloadPrograms:
    @pytest.mark.parametrize("name", tuple(AWFY_NAMES) + tuple(MICROSERVICE_NAMES))
    def test_compiled_program_is_unchanged(self, name):
        if name in MICROSERVICE_NAMES:
            workload = microservice_workload(name)
        else:
            workload = awfy_workload(name)
        dump = program_dump(workload.compile())
        assert hashlib.sha256(dump.encode()).hexdigest() == PROGRAM_SHA256[name]
