"""MIR: the LLVM-IR-like intermediate representation.

The paper's framework operates on LLVM IR in clang ``-O0`` shape: every
source variable lives in memory (``alloca``) and every use is an explicit
``load``/``store``.  MIR reproduces exactly that shape — a three-address
register machine over a flat word-addressed memory, with region markers
(loop / branch entry, exit, iteration) standing in for DiscoPoP's control
-region instrumentation.

Pipeline: MiniC AST --(:mod:`repro.mir.lowering`)--> :class:`Module` of
:class:`Function` s of :class:`BasicBlock` s of :class:`Instr` uctions,
then flattened to linear code arrays executed by :mod:`repro.runtime`.
The Python frontend (:mod:`repro.frontend.lowering`) builds the same
modules: both lowerings subclass :class:`MirEmitter`
(:mod:`repro.mir.emit`), which owns registers, op ids, regions,
loads/stores, the function frame and the branch and loop shapes.
"""

from repro.mir.instructions import Instr, Opcode
from repro.mir.module import BasicBlock, Function, Module, Region
from repro.mir.emit import MirEmitter
from repro.mir.lowering import lower, compile_source
from repro.mir.cfg import CFG, build_cfg, dominators, postdominators
from repro.mir.printer import format_function, format_module

__all__ = [
    "Instr",
    "Opcode",
    "BasicBlock",
    "Function",
    "Module",
    "Region",
    "MirEmitter",
    "lower",
    "compile_source",
    "CFG",
    "build_cfg",
    "dominators",
    "postdominators",
    "format_function",
    "format_module",
]
