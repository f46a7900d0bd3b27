"""Spans around the public functions of swgfem, recorded from outside.

`Tracer.installed()` replaces each traced function by a wrapper in every
loaded ``swgfem`` module that holds it, so calls made inside the program
(``cli`` -> ``analysis`` -> ``assembly`` ...) are caught as well as the
benchmark's own.  A span is (layer, start, end, parent); a layer's self
time is its spans' durations minus the time their child spans cover.
Spans stay in memory until the benchmark writes them out.
"""

import contextlib
import functools
import sys
import time
from collections import Counter

import numpy as np

#: Traced functions: (module, function, layer).
TARGETS = (
    ("swgfem.mesh", "build_tensor_mesh", "mesh.build"),
    ("swgfem.mesh", "uniform_mesh", "mesh.build"),
    ("swgfem.mesh", "element_geometry", "mesh.build"),
    ("swgfem.mesh", "element_arrays", "mesh.build"),
    ("swgfem.problems", "mesh_for", "mesh.build"),
    ("swgfem.mesh", "enumerate_dofs", "mesh.dofs"),
    ("swgfem.kernels", "gauss_points", "kernels.local"),
    ("swgfem.kernels", "weak_gradient", "kernels.local"),
    ("swgfem.kernels", "extension_coeffs", "kernels.local"),
    ("swgfem.kernels", "midpoint_defects", "kernels.local"),
    ("swgfem.kernels", "basis_extensions", "kernels.local"),
    ("swgfem.kernels", "stabilizer_matrix", "kernels.local"),
    ("swgfem.kernels", "diffusion_matrix", "kernels.local"),
    ("swgfem.kernels", "convection_matrix", "kernels.local"),
    ("swgfem.kernels", "reaction_matrix", "kernels.local"),
    ("swgfem.kernels", "load_vector", "kernels.local"),
    ("swgfem.kernels", "local_operator", "kernels.local"),
    ("swgfem.assembly", "assemble", "assembly.assemble"),
    ("swgfem.assembly", "dump_matrix", "assembly.dump"),
    ("swgfem.fd", "assemble_fd5", "fd.assemble"),
    ("swgfem.fd", "assemble_fd7", "fd.assemble"),
    ("swgfem.fd", "check_equivalence", "fd.equiv"),
    ("swgfem.solver", "solve", "solver.solve"),
    ("swgfem.analysis", "discrete_l2_error", "analysis.norms"),
    ("swgfem.analysis", "discrete_h1_error", "analysis.norms"),
    ("swgfem.analysis", "dmp_check", "analysis.dmp"),
    ("swgfem.analysis", "kappa_condition", "analysis.kappa"),
    ("swgfem.analysis", "sign_inequality_value", "analysis.sign"),
    ("swgfem.analysis", "split_pos_neg", "analysis.sign"),
    ("swgfem.analysis", "convergence_table", "analysis.table"),
    ("swgfem.analysis", "solve_problem", "analysis.table"),
    ("swgfem.cli", "main", "cli"),
)

#: Per-layer metrics: name -> (unit, how it is read from the trace).
LAYER_METRICS = {
    "mesh.build_s": ("s", ("self", "mesh.build")),
    "mesh.dofs_s": ("s", ("self", "mesh.dofs")),
    "mesh.dofs_calls": ("count", ("calls", "mesh.dofs")),
    "kernels.local_s": ("s", ("self", "kernels.local")),
    "kernels.calls": ("count", ("calls", "kernels.local")),
    "assembly.assemble_s": ("s", ("self", "assembly.assemble")),
    "assembly.calls": ("count", ("calls", "assembly.assemble")),
    "assembly.nnz": ("count", ("count", "assembly.nnz")),
    "assembly.dump_s": ("s", ("self", "assembly.dump")),
    "fd.assemble_s": ("s", ("self", "fd.assemble")),
    "fd.equiv_s": ("s", ("self", "fd.equiv")),
    "solver.solve_s": ("s", ("self", "solver.solve")),
    "solver.calls": ("count", ("calls", "solver.solve")),
    "solver.dofs": ("count", ("count", "solver.dofs")),
    "solver.iterations": ("count", ("count", "solver.iterations")),
    "solver.failed": ("count", ("count", "solver.failed")),
    "analysis.norms_s": ("s", ("self", "analysis.norms")),
    "analysis.dmp_s": ("s", ("self", "analysis.dmp")),
    "analysis.kappa_s": ("s", ("self", "analysis.kappa")),
    "analysis.sign_self_s": ("s", ("self", "analysis.sign")),
    "analysis.table_self_s": ("s", ("self", "analysis.table")),
    "cli.self_s": ("s", ("self", "cli")),
}


class Tracer:
    """In-memory span recorder; single-threaded (SWG_THREADS=1)."""

    def __init__(self):
        self.layers = []      # layer name per span
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._stack = []

    def _wrap(self, fn, layer):
        layers, starts, ends, parents = self.layers, self.starts, self.ends, self.parents
        stack, counts = self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layers)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if layer == "solver.solve":
                system = args[0] if args else kwargs["system"]
                counts["solver.dofs"] += system.matrix.shape[0]
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if layer == "solver.solve":
                    counts["solver.failed"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if layer == "solver.solve":
                counts["solver.iterations"] += result.iterations
            elif layer == "assembly.assemble":
                counts["assembly.nnz"] += result.matrix.nnz
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced function for its wrapper; restore on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "swgfem" or name.startswith("swgfem."))]
        patched = []
        for mod_name, attr, layer in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, layer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        try:
            yield self
        finally:
            for mod, key, original in patched:
                setattr(mod, key, original)

    def self_times(self):
        """Self time per span: its duration minus its children's."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur - child

    def layer_metrics(self, rounds):
        """Every per-layer metric, per round of the workload."""
        self_s = Counter()
        calls = Counter(self.layers)
        for layer, s in zip(self.layers, self.self_times()):
            self_s[layer] += float(s)
        out = {}
        for name, (unit, (kind, key)) in LAYER_METRICS.items():
            source = {"self": self_s, "calls": calls, "count": self.counts}[kind]
            out[name] = {"value": source[key] / rounds, "unit": unit}
        return out

    def records(self):
        """Spans as (layer, start, end, parent) rows for the trace file."""
        return [list(r) for r in zip(self.layers, self.starts, self.ends, self.parents)]
