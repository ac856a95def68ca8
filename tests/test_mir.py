"""Tests for MIR: lowering, regions, CFG/dominators, printer."""

from collections import Counter

import pytest

from repro.mir.cfg import (
    build_cfg,
    dominators,
    immediate_postdominator,
    postdominators,
)
from repro.mir.instructions import Opcode
from repro.mir.lowering import compile_source
from repro.mir.printer import format_function, format_module
from repro.runtime.interpreter import VM
from repro.workloads import REGISTRY, get_workload
from repro.cu.controldeps import (
    control_dependent_blocks,
    lookahead_reconvergence,
    reconvergence_points,
)

SIMPLE = """
int g;
int a[8];
int add(int x, int y) { return x + y; }
int main() {
  for (int i = 0; i < 8; i++) {
    a[i] = add(i, g);
  }
  if (a[0] > 0) { g = 1; } else { g = 2; }
  return g;
}
"""


class TestLowering:
    def test_globals_layout(self):
        module = compile_source(SIMPLE)
        assert module.global_size == 9  # g + a[8]
        names = [info.name for info, _ in module.global_layout()]
        assert names == ["g", "a"]

    def test_every_block_ends_with_terminator(self):
        module = compile_source(SIMPLE)
        for func in module.functions.values():
            for block in func.blocks:
                # dead blocks after returns may be empty; reachable blocks
                # must end in a terminator
                if block.instrs:
                    last_ok = block.terminator is not None or block is func.blocks[-1]
                    assert last_ok or all(
                        not i.is_terminator() for i in block.instrs[:-1]
                    )

    def test_memory_ops_have_identity(self):
        module = compile_source(SIMPLE)
        for func in module.functions.values():
            for instr in func.code:
                if instr.is_memory():
                    assert instr.op_id is not None
                    assert instr.var is not None
                    assert instr.line > 0
        # op ids unique
        ids = [i.op_id for f in module.functions.values() for i in f.code
               if i.is_memory()]
        assert len(ids) == len(set(ids))

    def test_region_tree(self):
        module = compile_source(SIMPLE)
        kinds = {}
        for region in module.regions.values():
            kinds.setdefault(region.kind, 0)
            kinds[region.kind] += 1
        assert kinds["func"] == 2
        assert kinds["loop"] == 1
        assert kinds["branch"] == 1
        loop = module.loops()[0]
        parent = module.regions[loop.parent]
        assert parent.kind == "func" and parent.func == "main"

    def test_region_global_vars(self):
        module = compile_source(SIMPLE)
        loop = module.loops()[0]
        names = {module.var(v).name for v in loop.global_vars}
        # i is declared in the loop (local); a, g are global to it
        assert "a" in names and "g" in names
        assert "i" not in names

    def test_loop_iter_var_detected(self):
        module = compile_source(SIMPLE)
        loop = module.loops()[0]
        assert loop.iter_var is not None
        assert module.var(loop.iter_var).name == "i"
        assert not loop.iter_var_written_in_body

    def test_iter_var_written_in_body_flag(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 0; i < 10; i++) {
            if (s > 5) { i += 2; }
            s += 1;
          }
          return s;
        }
        """
        module = compile_source(src)
        loop = module.loops()[0]
        assert loop.iter_var_written_in_body

    def test_printer_round(self):
        module = compile_source(SIMPLE)
        text = format_module(module)
        assert "@main" in text and "load" in text and "store" in text
        for func in module.functions.values():
            assert format_function(func)

    def test_constant_folding(self):
        module = compile_source("int main() { return 2 + 3 * 4; }")
        main = module.functions["main"]
        rets = [i for i in main.code if i.op == Opcode.RET]
        assert rets[0].a == ("i", 14)

    def test_constant_division_by_zero_is_not_folded(self):
        # the branch is never taken, so the program runs and returns 0
        module = compile_source(
            "int main() { int x; x = 0; if (x) { x = 1 / 0; } return x; }"
        )
        assert VM(module, None, instrument=False).run("main") == 0

    def test_unfolded_division_by_zero_raises_when_run(self):
        module = compile_source(
            "int main() { int x; x = 1; if (x) { x = 1 / 0; } return x; }"
        )
        with pytest.raises(ZeroDivisionError):
            VM(module, None, instrument=False).run("main")

    def test_break_continue_structure(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 0; i < 10; i++) {
            if (i == 3) { continue; }
            if (i == 7) { break; }
            s += i;
          }
          return s;
        }
        """
        module = compile_source(src)
        assert module.functions["main"].code  # lowering succeeded


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_region_markers_well_formed(name):
    """Both frontends: every loop/branch region has exactly one ENTER and
    one EXIT site, and every child region's lines lie inside its
    parent's."""
    module = get_workload(name).compile(scale=1)
    sites = Counter(
        (instr.op, instr.a)
        for func in module.functions.values()
        for instr in func.code
        if instr.op in (Opcode.ENTER, Opcode.EXIT)
    )
    for region in module.regions.values():
        if region.kind != "func":
            assert sites[Opcode.ENTER, region.region_id] == 1, region
            assert sites[Opcode.EXIT, region.region_id] == 1, region
        if region.parent is not None:
            parent = module.regions[region.parent]
            assert parent.start_line <= region.start_line, region
            assert region.end_line <= parent.end_line, region


class TestCFG:
    def test_cfg_successors(self):
        module = compile_source(SIMPLE)
        cfg = build_cfg(module.functions["main"])
        assert cfg.entry == 0
        assert cfg.exits  # has a return
        # every reachable non-exit block has successors
        for node in cfg.reachable():
            if node not in cfg.exits:
                assert cfg.succs[node]

    def test_dominators_entry(self):
        module = compile_source(SIMPLE)
        cfg = build_cfg(module.functions["main"])
        dom = dominators(cfg)
        for node, doms in dom.items():
            assert cfg.entry in doms

    def test_postdominators_reconvergence_if_else(self):
        src = """
        int main() {
          int x = 1;
          if (x > 0) { x = 2; } else { x = 3; }
          return x;
        }
        """
        module = compile_source(src)
        func = module.functions["main"]
        points = reconvergence_points(func)
        assert len(points) == 1
        (branch, reconv), = points.items()
        assert reconv is not None
        # lookahead agrees with post-dominator computation
        assert lookahead_reconvergence(func, branch) == reconv

    def test_reconvergence_simple_if(self):
        src = """
        int main() {
          int x = 1;
          if (x > 0) { x = 2; }
          return x;
        }
        """
        module = compile_source(src)
        func = module.functions["main"]
        points = reconvergence_points(func)
        (branch, reconv), = points.items()
        assert lookahead_reconvergence(func, branch) == reconv

    def test_control_dependent_blocks(self):
        src = """
        int main() {
          int x = 1;
          if (x > 0) { x = 2; } else { x = 3; }
          return x;
        }
        """
        module = compile_source(src)
        func = module.functions["main"]
        deps = control_dependent_blocks(func)
        (branch, dependent), = deps.items()
        # then and else blocks are control dependent; merge is not
        assert len(dependent) == 2

    def test_loop_reconvergence(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 0; i < 4; i++) { s += i; }
          return s;
        }
        """
        module = compile_source(src)
        func = module.functions["main"]
        points = reconvergence_points(func)
        # loop header branch re-converges at the exit block
        assert all(r is not None for r in points.values())
