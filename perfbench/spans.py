"""In-memory span recorder that wraps leibkit's functions from outside.

A span is (name, start_ns, end_ns, parent index).  Spans are appended to
flat lists while the traced pass runs and written out only when the run
ends.  Nothing under ``src/`` is edited: class methods are wrapped once on
their class, and every module-level function is re-bound at each
``from ... import`` site that holds it (``signature`` for example is bound
separately in ``catalogue``, ``iso`` and ``cli``).
"""

import functools
import gzip
import json
import time

# (module, class) pairs whose methods are wrapped on the class.  The two
# per-vector primitives of LeibnizAlgebra are left out: a span costs more
# than their work, and their time belongs to the caller's self time.
CLASS_METHODS = (
    ("linalg", "Matrix", ("rref",)),
    ("linalg", "Subspace", ("intersect",)),
    ("algebra", "LeibnizAlgebra", None),   # None: every public method
)
ALGEBRA_UNTRACED = ("bracket", "bracket_basis")

# Module-level functions, by the module that defines them.  ``exprs`` is
# not listed: expression parsing and evaluation count as catalogue time.
FUNCTIONS = (
    ("invariants", ("signature",)),
    ("lemmas", ("check_center_bound", "check_derived_bound")),
    ("forms", ("section_two_eligible", "extract_v_form",
               "congruence_canonical")),
    ("catalogue", ("parse_catalogue", "sample_params", "instantiate",
                   "verify_entry")),
    ("iso", ("certify", "adapted_search", "lift_witness", "verify_witness")),
    ("cli", ("main",)),
)


class Tracer:
    """Collects spans for the functions of one imported leibkit.

    ``hooks`` maps a span name to a callable ``hook(span_index, args,
    result)`` run after each call, so a caller can harvest inputs and
    results (search candidate counts, matrices given to ``rref``) at the
    boundary where they pass.
    """

    def __init__(self, lk, hooks=None):
        self.lk = lk
        self.hooks = dict(hooks or {})
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name, fn):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack = self._stack
        hook = self.hooks.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(idx, args, result)
            return result

        return traced

    def install(self):
        lk = self.lk
        for mod_name, cls_name, methods in CLASS_METHODS:
            cls = getattr(getattr(lk, mod_name), cls_name)
            if methods is None:
                methods = [m for m, v in vars(cls).items()
                           if callable(v) and not m.startswith("_")
                           and m not in ALGEBRA_UNTRACED]
            for meth in methods:
                orig = vars(cls)[meth]
                setattr(cls, meth, self._wrap("%s.%s" % (mod_name, meth),
                                              orig))
                self._undo.append((cls, meth, orig))
        for mod_name, fn_names in FUNCTIONS:
            home = getattr(lk, mod_name)
            for fn_name in fn_names:
                orig = getattr(home, fn_name)
                wrapped = self._wrap("%s.%s" % (mod_name, fn_name), orig)
                for module in vars(lk).values():
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapped)
                            self._undo.append((module, attr, orig))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # ---------------------------------------------------------- analysis

    def aggregate(self):
        """name -> {"calls", "total_s", "self_s"}; self time is a span's
        duration minus the time its direct children cover."""
        n = len(self.names)
        child_ns = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            rec = out.setdefault(self.names[i],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += dur / 1e9
            rec["self_s"] += (dur - child_ns[i]) / 1e9
        return out

    def durations_ms(self, name):
        return [(self.ends[i] - self.starts[i]) / 1e6
                for i in range(len(self.names)) if self.names[i] == name]

    def count_under(self, name, ancestor):
        """Spans called `name` with a span called `ancestor` above them."""
        count = 0
        for i in range(len(self.names)):
            if self.names[i] != name:
                continue
            p = self.parents[i]
            while p >= 0:
                if self.names[p] == ancestor:
                    count += 1
                    break
                p = self.parents[p]
        return count

    def write(self, path):
        """All spans as gzip'd JSON lines: [name, start_ns, end_ns, parent]."""
        with gzip.open(path, "wt") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(row) + "\n")
