"""Determining optimal parameters for software transactional memory
(§5.2, Table 5.4).

When a suggested parallel loop still shares state across iterations (name
dependences, non-reduction shared writes), an STM can guard the shared
accesses.  Analysing the profiler's output yields the parameters an STM
needs tuning for:

* the number of *transactions* — contiguous sink-line groups inside the
  loop body that touch shared variables and must execute atomically;
* per-transaction read/write set sizes — how many distinct shared variables
  each transaction reads/writes (STMs size their logs from these);
* conflict likelihood — how many of the shared accesses carry
  cross-iteration dependences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.discovery.loops import LoopInfo
from repro.engine import DiscoveryResult
from repro.profiler.deps import DepType


@dataclass
class Transaction:
    """One atomic section: a contiguous run of sink lines sharing state."""

    lines: list[int]
    read_vars: set = field(default_factory=set)
    write_vars: set = field(default_factory=set)

    @property
    def read_set_size(self) -> int:
        return len(self.read_vars)

    @property
    def write_set_size(self) -> int:
        return len(self.write_vars)


@dataclass
class LoopTransactions:
    loop: LoopInfo
    transactions: list[Transaction] = field(default_factory=list)

    @property
    def n_transactions(self) -> int:
        return len(self.transactions)


@dataclass
class TransactionAnalysis:
    program: str
    loops: list[LoopTransactions] = field(default_factory=list)

    @property
    def total_transactions(self) -> int:
        return sum(l.n_transactions for l in self.loops)

    def max_read_set(self) -> int:
        return max(
            (t.read_set_size for l in self.loops for t in l.transactions),
            default=0,
        )

    def max_write_set(self) -> int:
        return max(
            (t.write_set_size for l in self.loops for t in l.transactions),
            default=0,
        )


def analyze_transactions(
    result: DiscoveryResult, program: str = ""
) -> TransactionAnalysis:
    """Derive STM transactions from the profiler output (Table 5.4)."""
    analysis = TransactionAnalysis(program)
    module = result.module
    from repro.discovery.loops import _iter_var_names

    for info in result.loops:
        region = module.regions[info.region_id]
        iter_vars = _iter_var_names(module, region)
        # shared variables: involved in any carried dependence that is not
        # handled by privatization/reduction or loop bookkeeping
        carried = result.store.carried_by(info.region_id)
        shared_vars = {
            d.var
            for d in carried
            if d.var not in info.reduction_vars and d.var not in iter_vars
        }
        if not shared_vars:
            continue
        # group the sink lines touching shared vars into contiguous runs
        lines = sorted(
            {
                d.sink_line
                for d in result.store
                if region.contains_line(d.sink_line) and d.var in shared_vars
            }
        )
        if not lines:
            continue
        loop_tx = LoopTransactions(info)
        current: list[int] = []
        for line in lines:
            if current and line > current[-1] + 1:
                loop_tx.transactions.append(_make_tx(current, result, shared_vars))
                current = []
            current.append(line)
        if current:
            loop_tx.transactions.append(_make_tx(current, result, shared_vars))
        analysis.loops.append(loop_tx)
    return analysis


def _make_tx(lines: list[int], result: DiscoveryResult, shared: set) -> Transaction:
    tx = Transaction(list(lines))
    line_set = set(lines)
    for dep in result.store:
        if dep.var not in shared:
            continue
        if dep.sink_line in line_set:
            if dep.type == DepType.RAW:
                tx.read_vars.add(dep.var)
            else:
                tx.write_vars.add(dep.var)
        if dep.source_line in line_set and dep.type == DepType.RAW:
            tx.write_vars.add(dep.var)
        if dep.source_line in line_set and dep.type != DepType.RAW:
            tx.read_vars.add(dep.var)
    return tx
