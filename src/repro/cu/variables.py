"""Global/local variable analysis per control region (§3.2.1, §3.2.5).

The lowering already records, per region, which variables are declared
inside (local) and which are referenced but declared outside (global to the
region).  This module applies the paper's special rules on top:

* function parameters are included in the read set; parameters passed by
  value are excluded from the write set (MiniC scalars are by-value; array
  parameters are by-reference and stay writable);
* the return value is the virtual variable ``ret`` in the write set;
* loop iteration variables are local to the loop by default, global when
  the loop body also writes them.
"""

from __future__ import annotations

from repro.mir.module import Module, Region

#: sentinel var_id for the virtual return-value variable (§3.2.5)
RET_VAR = -1


def effective_global_vars(module: Module, region: Region) -> frozenset:
    """The paper's ``globalVars`` of a region after the §3.2.5 rules."""
    global_vars = set(region.global_vars)
    if region.kind == "loop" and region.iter_var is not None:
        if not region.iter_var_written_in_body:
            global_vars.discard(region.iter_var)
    if region.kind == "func":
        func = module.functions.get(region.func)
        if func is not None:
            for pinfo in func.params:
                global_vars.add(pinfo.var_id)
    return frozenset(global_vars)


def read_write_sets(
    module: Module, region: Region, global_vars: frozenset
) -> tuple[frozenset, frozenset]:
    """(read_set, write_set) of region-global variables, §3.2.5 rules:
    params always read; by-value params never written; ``ret`` written by
    non-void functions."""
    reads = set(region.read_vars & global_vars)
    writes = set(region.written_vars & global_vars)
    if region.kind == "func":
        func = module.functions.get(region.func)
        if func is not None:
            for pinfo in func.params:
                reads.add(pinfo.var_id)
                if not pinfo.is_array:
                    writes.discard(pinfo.var_id)
            if func.return_type != "void":
                writes.add(RET_VAR)
    return frozenset(reads), frozenset(writes)
