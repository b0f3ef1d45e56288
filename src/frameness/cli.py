"""Command-line front end: every experiment family as one subcommand.

JSON is the canonical output format (CSV is a row projection of the same
data); every artifact embeds the toolkit version, the parsed configuration
and the seed, so identical invocations at a fixed BLAS thread count produce
byte-identical files (eigensolvers may round differently across thread counts).

In-process ``run(argv)`` calls reuse each subcommand's parser.  ``--out`` is
overwritten in place, which is no more atomic than truncating it first: a
crash mid-write can leave a partial file.

Exit codes: 0 success, 2 validation failure, 3 resource limit exceeded,
64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import stat
import struct
import sys
from array import array

import numpy as np

from . import __version__
from .asymmetry import (
    TwirlOperation,
    g_asymmetry,
    max_su2_asymmetry_value,
    max_u1_asymmetry_value,
    maximal_asymmetry_state,
)
from .channels import random_unital_idempotent_channel, relative_entropy_to_image
from .entanglement import (
    BipartiteState,
    bell_diagonal_state,
    optimize_dephasing_bound,
    optimize_two_qubit_bound,
    optimize_two_qubit_bounds,
)
from .estimation import holevo_bound_check, random_povm
from .groups import (
    ChargeGrading,
    build_collective_spin_rep,
    charge_grading_from_json,
    cyclic_phase_rep,
    finite_rep_from_json,
    quaternion_rep,
    validate_finite_rep,
    z2_phase_flip_rep,
)
from .sampling import _density_operators, random_density_operator, random_hermitian
from .scaling import (
    GAUSSIAN_CONSTANT_BITS,
    GAUSSIAN_CONSTANT_HALF,
    finite_group_bound_check,
    regularized_asymmetry_table,
    relinearized_monotone,
    su2_bound_check,
    u1_ncopy_asymmetry,
    variance_discontinuity_witness,
)
from .states import (
    BOUND_TOL,
    COMPOSED_TOL,
    IDENTITY_TOL,
    INPUT_TOL,
    KLEIN_TOL,
    TIGHT_TOL,
    VERIFY_TOL,
    DensityOperator,
    FramenessError,
    ProbabilityDistribution,
    PureState,
    ResourceLimitError,
    ShapeMismatchError,
    _check_workspace,
    binary_entropy,
    density_from_json,
    density_to_json,
    pure_state_from_json,
    pure_state_to_json,
    relative_entropy,
)

_USAGE = """\
usage: frameness <command> [options]

commands:
  asymmetry   asymmetry of a state under a group twirl
  twirl       dump the twirled state
  extremal    maximal-asymmetry state and its value
  scaling     N-copy asymmetry table against the Gaussian-entropy model
  bounds      finite-group / Lie-group bound reports
  ree         dephasing bound sandwich on the relative entropy of entanglement
  estimate    Holevo-bound estimation report for a group orbit
  verify      run the seeded invariant suite

run `frameness <command> --help` for the options of each command.
"""

COMMANDS = {}  # name -> (description, options, body)


def _command(name: str, description: str, options=None):
    """Register ``body(p, ns)`` as subcommand ``name``; ``options(p)`` adds its own options."""
    def deco(body):
        COMMANDS[name] = (description, options, body)
        return body
    return deco


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one stderr line naming the option (exit 2); --help prints the usage."""
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser(name: str) -> _Parser:
    """The parser of subcommand ``name``, built on its first call and reused by later ones."""
    description, options, _ = COMMANDS[name]
    p = _Parser(prog=f"frameness {name}", description=description)
    p.add_argument("--seed", type=int, default=0, help="seed recorded in the output")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    if options is not None:
        options(p)
    return p


def _count(text: str) -> int:
    """argparse type of a nonnegative count: a negative one is a usage error (exit 2)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative count, got {value}")
    return value


def _dims(text: str) -> tuple[int, int]:
    """argparse type of a dA,dB pair of positive dimensions: anything else is a usage error (exit 2)."""
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        dims = ()
    if len(dims) != 2 or min(dims) < 1:
        raise argparse.ArgumentTypeError(f"must be two positive integers dA,dB, got {text!r}")
    return dims


def _weight(text: str) -> float:
    """argparse type of one weight in [0, 1]: anything else is a usage error (exit 2)."""
    try:
        weight = float(text)
    except ValueError:
        weight = math.nan
    if not 0.0 <= weight <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a weight in [0, 1], got {text!r}")
    return weight


def _copies(text: str) -> int:
    """argparse type of a positive copy count: anything else is a usage error (exit 2)."""
    try:
        copies = int(text)
    except ValueError:
        copies = 0
    if copies < 1:
        raise argparse.ArgumentTypeError(f"must be a positive copy count, got {text!r}")
    return copies


def _each(text: str, kind, noun: str) -> str:
    """Check each comma-separated entry of ``text`` with the argparse type ``kind``; name the bad one."""
    for k, entry in enumerate(text.split(","), 1):
        try:
            kind(entry)
        except argparse.ArgumentTypeError:
            raise argparse.ArgumentTypeError(f"entry {k} of {text!r} is {entry!r}, not {noun}") from None
    return text


def _weights(text: str) -> str:
    """argparse type of comma-separated weights in [0, 1], returned as written (as recorded)."""
    return _each(text, _weight, "a weight in [0, 1]")


def _copy_list(text: str) -> str:
    """argparse type of comma-separated positive copy counts, returned as written (as recorded)."""
    return _each(text, _copies, "a positive copy count")


def _meta(command: str, ns: argparse.Namespace) -> dict:
    config = {}
    for key, value in sorted(vars(ns).items()):
        if key in ("out", "format") or value is None:
            continue
        if isinstance(value, tuple):  # recorded as written on the command line
            value = ",".join(map(str, value))
        config[key] = value if isinstance(value, (int, float, str, bool)) else str(value)
    return {
        "command": command,
        "config": config,
        "seed": int(ns.seed),
        "toolkit": "frameness",
        "version": __version__,
    }


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        # written in place, then cut: truncating first costs ~0.15 ms a call on ext4 mounted with discard
        with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # /dev/null cannot be cut
                fh.truncate()


def _emit_json(meta: dict, result, out):
    _write(json.dumps({"meta": meta, "result": result}, indent=2, sort_keys=True) + "\n", out)


def _emit_csv(meta: dict, header, rows, out):
    buf = io.StringIO()
    for key in ("toolkit", "version", "command", "seed"):
        buf.write(f"# {key}={meta[key]}\n")
    buf.write("# config=" + json.dumps(meta["config"], sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _write(buf.getvalue(), out)


def _emit(ns, meta, result, header, rows):
    if ns.format == "csv":
        _emit_csv(meta, header, rows, ns.out)
    else:
        _emit_json(meta, result, ns.out)


# Input files.  The numeric arrays of a state or group file (the top-level
# values below) are nearly all of its bytes.  They are parsed flat into one
# float64 array rather than into nested Python lists; the rest of the object
# goes through json.loads with each array cut out.  A large array's chunks are
# split into contiguous parts, one per usable CPU: this process scans the
# first, and each other part is scanned by a forked child that sends its
# result back through a pipe.
_ARRAY_KEYS = ("matrix", "amplitudes", "unitaries")
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
_COLON = re.compile(rb"\s*:\s*")
_WHITESPACE = b" \t\n\r"
_NUMBER_CHARS = b"0123456789.eE+-"
_NUMBER_TO_ZERO = bytes.maketrans(_NUMBER_CHARS, b"0" * len(_NUMBER_CHARS))
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
_CHUNK_BYTES = 1 << 20
# Smallest part worth a child of its own, measured on a 2-vCPU VM (Python 3.11):
# a fork, pipe and reap cost about 2.5 ms with 10 or 200 MB resident, against
# about 35 ms to scan 1 MiB.  Two parts read a 2.7 MiB array 25% faster than
# one, and a 1.1 MiB one (a 1 MiB part and a sliver) no faster.
_MIN_PART_BYTES = 1 << 20
# A child's message: misplaced flag, skeleton length, value count; then the
# skeleton and the values as raw float64.
_PART_HEADER = struct.Struct("<?QQ")


def _load_json(path: str) -> dict:
    """The JSON object in ``path``; its top-level numeric arrays come back as float64 arrays.

    Each value under a key of ``_ARRAY_KEYS`` that opens with ``[`` must be a
    rectangular array of finite JSON numbers.  Every number is parsed by
    ``json.loads``, so it is bitwise the float ``json.load`` would give.
    Malformed input raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    spans = _array_spans(data)
    scans = [_scan_array(data, key, start, end) for key, start, end in spans]
    shapes = [_array_shape(key, skeleton, misplaced)
              for (key, _, _), (skeleton, misplaced, _, _) in zip(spans, scans)]
    pieces, cut = [], 0
    for _, start, end in spans:
        pieces += [data[cut:start], b"0"]
        cut = end
    pieces.append(data[cut:])
    try:
        obj = json.loads(b"".join(pieces).decode())  # UTF-8, as json.load reads a text file
    except json.JSONDecodeError as exc:
        # one byte stands in for each array, so shift the position back into the file
        pos = exc.pos + sum(end - start - 1 for _, start, end in spans if start < exc.pos)
        raise ValueError(f"{path}: {exc.msg} at byte {pos}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for (key, _, _), shape, (_, _, values, fault) in zip(spans, shapes, scans):
        if fault is not None:
            raise ValueError(fault)
        obj[key] = values.reshape(shape)
    return obj


def _array_spans(data: bytes) -> list:
    """(key, start, end) of each top-level ``_ARRAY_KEYS`` value that opens with ``[``.

    Strings are skipped whole, so brackets and keys inside them do not count.
    A span runs to the next quote or closing brace, less trailing commas and
    whitespace: a numeric array holds neither, and anything else the span
    catches fails the skeleton check.  Such a key may appear once only (where
    json.load would keep the last value).
    """
    spans, seen, depth, pos = [], set(), 0, 0
    while (m := _STRING.search(data, pos)) is not None:
        s = m.start()
        depth += (data.count(b"{", pos, s) + data.count(b"[", pos, s)
                  - data.count(b"}", pos, s) - data.count(b"]", pos, s))
        pos = m.end()
        colon = _COLON.match(data, pos)
        if depth != 1 or colon is None or (key := json.loads(m.group())) not in _ARRAY_KEYS:
            continue
        if key in seen:
            raise ValueError(f"key '{key}' appears twice")
        seen.add(key)
        start = colon.end()
        if data[start:start + 1] != b"[":
            continue
        stops = [i for i in (data.find(b'"', start), data.find(b"}", start)) if i >= 0]
        end = min(stops, default=len(data))
        while data[end - 1] in b"," + _WHITESPACE:
            end -= 1
        spans.append((key, start, end))
        pos = end
    return spans


def _chunks(data: bytes, start: int, end: int) -> list:
    """(a, b) pieces of data[start:end] of about _CHUNK_BYTES, split at (and without) commas."""
    chunks, a = [], start
    while (b := data.find(b",", min(a + _CHUNK_BYTES, end), end)) >= 0:
        chunks.append((a, b))
        a = b + 1
    chunks.append((a, end))
    return chunks


def _usable_cpus() -> int:
    """CPUs this process may run on: the most parts an array is split into."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _scan(data: bytes, key: str, start: int, end: int, chunks: list) -> tuple:
    """(skeleton, misplaced, values, fault) of some chunks of the array in data[start:end].

    Each chunk is marked once: with the numbers and whitespace stripped, its
    brackets and commas are its piece of the skeleton, and with each number
    marked, no bracket may sit next to a comma or an empty pair (how an empty
    array, a stray comma or a number outside its brackets shows, since every
    entry between two commas holds one number).  Its numbers are parsed by
    json.loads with each bracket as a space, not nothing, so that ``1]2``
    stays two numbers and fails to parse instead of reading as ``12``.
    ``values`` holds them as an ``array("d")``; ``fault`` is the message of
    the first number that failed to parse, or None.
    """
    skeleton, misplaced, values, fault = [], False, array("d"), None
    for a, b in chunks:
        piece = data[a:b]
        marked = piece.translate(_NUMBER_TO_ZERO, _WHITESPACE)
        misplaced = (misplaced or b",]" in marked or b"[," in marked or b"[]" in marked
                     or (a > start and marked[:1] == b"]") or (b < end and marked[-1:] == b"["))
        skeleton.append(marked.translate(None, b"0"))
        if fault is not None:
            continue
        try:
            values += array("d", json.loads(b"[" + piece.translate(_BRACKETS_TO_SPACES) + b"]"))
        except json.JSONDecodeError as exc:
            fault = f"'{key}' holds a malformed number in bytes {a}-{b}: {exc.msg}"
        except OverflowError:
            fault = f"'{key}' holds an integer too large for a float"
        except (TypeError, ValueError) as exc:
            # a null (which fails the skeleton check first) or an integer past the digit limit
            fault = f"'{key}': {exc}"
    return b",".join(skeleton), misplaced, values, fault


def _scan_array(data: bytes, key: str, start: int, end: int) -> tuple:
    """_scan of every chunk of data[start:end], its parts scanned side by side.

    The values come back as one float64 array.  A child's result is used only
    if the child exited 0 and its message is whole; any other part is
    scanned here, so the result never depends on a child.
    """
    chunks = _chunks(data, start, end)
    n = min((end - start) // _MIN_PART_BYTES, len(chunks))
    n = min(n, _usable_cpus()) if n > 1 and hasattr(os, "fork") else 1
    parts = [chunks[len(chunks) * i // n:len(chunks) * (i + 1) // n] for i in range(n)]
    children, reaped = [], set()  # children: (pid, read end) of each later part, or None
    try:
        for part in parts[1:]:
            children.append(_fork_scan(data, key, start, end, part))
        results = [_scan(data, key, start, end, parts[0])]
        for part, child in zip(parts[1:], children):
            result = None
            if child is not None:
                result = _receive(child[1])
                if os.waitpid(child[0], 0)[1] != 0:
                    result = None
                reaped.add(child[0])
            results.append(result or _scan(data, key, start, end, part))
    finally:
        for pid, reader in filter(None, children):
            if pid not in reaped:
                import signal  # here, not at the top: it adds 2 ms to a fresh import

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            reader.close()
    skeletons, misplaced, values, faults = zip(*results)
    for part_values in values[1:]:
        values[0].frombytes(memoryview(part_values).cast("B"))
    return (b",".join(skeletons), any(misplaced), np.frombuffer(values[0]),
            next((fault for fault in faults if fault is not None), None))


def _fork_scan(data: bytes, key: str, start: int, end: int, part: list):
    """(pid, read end) of a forked child that scans ``part`` and sends its result, or None.

    The child writes the header, skeleton and values and exits 0 only if no
    number in its part failed; otherwise it exits 1 and the part is scanned
    again in the parent, which reports the fault.  None: no child could start.
    """
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        try:
            os.close(r)
            skeleton, misplaced, values, fault = _scan(data, key, start, end, part)
            if fault is None:
                with open(w, "wb") as out:
                    out.write(_PART_HEADER.pack(misplaced, len(skeleton), len(values)))
                    out.write(skeleton)
                    out.write(values)
                os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return pid, open(r, "rb")


def _receive(reader) -> tuple | None:
    """The (skeleton, misplaced, values, None) a child sent, or None if its message is short."""
    header = reader.read(_PART_HEADER.size)
    if len(header) < _PART_HEADER.size:
        return None
    misplaced, n_skeleton, n_values = _PART_HEADER.unpack(header)
    body = reader.read(n_skeleton + 8 * n_values)
    if len(body) < n_skeleton + 8 * n_values:
        return None
    return body[:n_skeleton], misplaced, memoryview(body)[n_skeleton:], None


def _array_shape(key: str, skeleton: bytes, misplaced: bool) -> tuple:
    """Shape of an array whose bracket/comma skeleton is ``skeleton``, read off its first entries.

    The skeleton must equal that of a rectangular array of this shape, and
    no bracket may be ``misplaced`` (see _scan).
    """
    if skeleton.translate(None, b"[],"):
        raise ValueError(f"'{key}' must hold only finite JSON numbers (no NaN, Infinity, "
                         "true, false, null, strings or objects)")
    if misplaced:
        raise ValueError(f"'{key}' has an empty array, a stray comma or a number outside "
                         "its brackets")
    ndim = len(skeleton) - len(skeleton.lstrip(b"["))
    shape, width = [], 0  # width: skeleton length of one entry at the current depth
    for first in range(ndim - 1, -1, -1):  # the first array at each depth, innermost first
        n, pos = 1, first + 1 + width
        while skeleton[pos:pos + 1] == b",":
            n, pos = n + 1, pos + 1 + width
        shape.insert(0, n)
        width = pos - first + 1
    expected = b""
    for n in reversed(shape):
        expected = b"[" + b",".join([expected] * n) + b"]"
    if skeleton != expected:
        raise ValueError(f"'{key}' is not a rectangular array (ragged rows or unbalanced "
                         f"brackets); its first entries have shape {tuple(shape)}")
    return tuple(shape)


def _read_state(path: str) -> DensityOperator | PureState:
    obj = _load_json(path)
    if "amplitudes" in obj:
        return pure_state_from_json(obj)
    return density_from_json(obj)


def _load_state(path: str) -> DensityOperator:
    state = _read_state(path)
    return state.projector() if isinstance(state, PureState) else state


def _load_finite_rep(path: str):
    rep = finite_rep_from_json(_load_json(path))
    report = validate_finite_rep(rep)
    if not report.ok:
        raise FramenessError(f"invalid finite-group representation:\n{report}")
    return rep


def _group_args(p: argparse.ArgumentParser):
    p.add_argument("--group", choices=("finite", "u1", "su2"), required=True)
    p.add_argument("--rep", help="finite group JSON (order/table/unitaries)")
    p.add_argument("--charges",
                   help="charge grading JSON (dim/charges); defaults to one charge per level")
    p.add_argument("--qubits", type=int, help="register size for the collective su2 action")


def _build_twirl(ns, dim_hint: int | None = None) -> TwirlOperation:
    if ns.group == "finite":
        if not ns.rep:
            raise ValueError("--group finite needs --rep FILE")
        return TwirlOperation.finite(_load_finite_rep(ns.rep))
    if ns.group == "u1":
        if ns.charges:
            return TwirlOperation.u1(charge_grading_from_json(_load_json(ns.charges)))
        if dim_hint is None:
            raise ValueError("--group u1 needs --charges FILE")
        return TwirlOperation.u1(ChargeGrading(list(range(dim_hint))))
    if ns.qubits is None:
        raise ValueError("--group su2 needs --qubits N")
    return TwirlOperation.su2(build_collective_spin_rep(ns.qubits))


def _group_state_options(p):
    _group_args(p)
    p.add_argument("--state", required=True, help="state JSON (density or pure)")


@_command("asymmetry", "asymmetry of a state under a group twirl", _group_state_options)
def _cmd_asymmetry(p, ns) -> int:
    state = _read_state(ns.state)
    twirl = _build_twirl(ns, dim_hint=state.dim)
    res = g_asymmetry(twirl, state)
    result = {
        "asymmetry": res.asymmetry,
        "entropy_in": res.entropy_in,
        "entropy_out": res.entropy_out,
    }
    _emit(ns, _meta("asymmetry", ns), result,
          ("asymmetry", "entropy_in", "entropy_out"),
          [(res.asymmetry, res.entropy_in, res.entropy_out)])
    return 0


@_command("twirl", "dump the twirled state", _group_state_options)
def _cmd_twirl(p, ns) -> int:
    state = _read_state(ns.state)
    twirl = _build_twirl(ns, dim_hint=state.dim)
    res = g_asymmetry(twirl, state)
    meta = _meta("twirl", ns)
    if ns.format == "csv":
        rows = ((i, j, float(z.real), float(z.imag))
                for i, row in enumerate(res.twirled_state.matrix)
                for j, z in enumerate(row))
        _emit_csv(meta, ("row", "col", "re", "im"), rows, ns.out)
    else:
        _emit_json(meta, {"asymmetry": res.asymmetry,
                          "state": density_to_json(res.twirled_state)}, ns.out)
    return 0


def _extremal_options(p):
    p.add_argument("--group", choices=("u1", "su2"), required=True)
    p.add_argument("--n-max", type=_count, help="largest charge for the u1 family")
    p.add_argument("--qubits", type=int, help="register size for su2")


@_command("extremal", "maximal-asymmetry state and its value", _extremal_options)
def _cmd_extremal(p, ns) -> int:
    if ns.group == "u1":
        if ns.n_max is None:
            raise ValueError("--group u1 needs --n-max")
        # the state, the grading and the twirl's per-sector objects: 1018-1059 B a level (tracemalloc)
        _check_workspace(1100 * (ns.n_max + 1), f"the u1 state on {ns.n_max + 1} levels")
        state = maximal_asymmetry_state("u1", n_max=ns.n_max)
        twirl = TwirlOperation.u1(ChargeGrading(list(range(ns.n_max + 1))))
        closed = max_u1_asymmetry_value(ns.n_max)
    else:
        if ns.qubits is None:
            raise ValueError("--group su2 needs --qubits")
        rep = build_collective_spin_rep(ns.qubits)
        state = maximal_asymmetry_state("su2", rep=rep)
        twirl = TwirlOperation.su2(rep)
        closed = max_su2_asymmetry_value(ns.qubits // 2)
    measured = g_asymmetry(twirl, state).asymmetry
    result = {"asymmetry": measured, "closed_form": closed, "state": pure_state_to_json(state)}
    _emit(ns, _meta("extremal", ns), result,
          ("asymmetry", "closed_form"), [(measured, closed)])
    return 0


def _per_copy_distribution(ns) -> ProbabilityDistribution:
    if ns.charges and not ns.state:
        raise ValueError("--charges also needs --state, the per-copy state the grading applies to")
    if ns.state:
        if not ns.charges:
            raise ValueError("--state also needs --charges to define the per-copy distribution")
        grading = charge_grading_from_json(_load_json(ns.charges))
        rho = _load_state(ns.state)
        if rho.dim != grading.dim:
            raise ShapeMismatchError(f"state dim {rho.dim} does not match grading dim {grading.dim}")
        if rho.dim > 1 and rho.eigenvalues()[-2] > INPUT_TOL:  # the law's entropy is A for pure copies only
            raise ValueError(f"--state must be a pure state: its density matrix has second-largest "
                             f"eigenvalue {rho.eigenvalues()[-2]:.6g} > {INPUT_TOL:g}")
        diag = np.real(np.diagonal(rho.matrix))
        return ProbabilityDistribution(np.bincount(grading.charges, weights=diag))
    return ProbabilityDistribution([1.0 - ns.p, ns.p])


def _default_n_list(n_top: int):
    ladder = [1, 2, 5, 10, 20, 50, 100, 150, 200, 500, 1000]
    ns = sorted({n for n in ladder if n <= n_top} | {n_top})
    return ns


def _scaling_options(p):
    p.add_argument("--p", type=_weight, help="per-copy Bernoulli weight on charge 1 (default 0.5)")
    p.add_argument("--state", help="per-copy pure state JSON (with --charges)")
    p.add_argument("--charges", help="charge grading JSON for --state")
    p.add_argument("--copies", type=_copies, default=200, help="largest N tabulated")
    p.add_argument("--n-list", type=_copy_list, help="comma-separated copy counts, overrides the ladder")
    p.add_argument("--constant", choices=("bits", "half"), default="bits",
                   help="additive model constant: (1/2)log2(e) or the literal 1/2")


@_command("scaling", "N-copy asymmetry against the Gaussian-entropy model", _scaling_options)
def _cmd_scaling(p, ns) -> int:
    if ns.state and ns.p is not None:
        p.error("--p sets the Bernoulli law, which --state replaces")
    if not ns.state and ns.p is None:
        ns.p = 0.5  # recorded as the Bernoulli law's weight
    per_copy = _per_copy_distribution(ns)
    n_list = ([int(x) for x in ns.n_list.split(",")] if ns.n_list else _default_n_list(ns.copies))
    constant = GAUSSIAN_CONSTANT_BITS if ns.constant == "bits" else GAUSSIAN_CONSTANT_HALF
    report = regularized_asymmetry_table(per_copy, n_list, constant)
    result = {
        "model": report.model,
        "variance": report.variance,
        "rows": [
            {"N": r.copies, "A_bits": r.asymmetry, "model_bits": r.model_value,
             "gap_bits": r.gap, "A_over_N": r.a_over_n}
            for r in report.rows
        ],
    }
    _emit(ns, _meta("scaling", ns), result, report.CSV_HEADER, list(report.csv_rows()))
    return 0


def _bounds_options(p):
    _group_args(p)
    p.add_argument("--state", help="base state for the finite-group N-copy check")
    p.add_argument("--copies", type=_copies, help="largest N checked by --group finite (default 3)")


@_command("bounds", "finite-group / Lie-group bound reports. --group finite checks "
          "A_G(rho^(x)N) <= log2|G| for N = 1..--copies and reports conjugation_bits, "
          "log2 of the number of distinct maps U_g . U_g^dag, which no row exceeds.  On "
          "a qubit the rows come from Schur-Weyl blocks and 2^35 caps the work |G| N^4; "
          "otherwise two d^N x d^N complex arrays and one d^(N-1)-square power must fit "
          "the 2^32-byte workspace budget.  --group su2 compares "
          "2 log2(N+1), the symmetric-subspace design bound on the asymmetry of an "
          "N-copy state rho^(x)N, with the measured asymmetry of the N-qubit "
          "maximal-asymmetry state.  That state is not an N-copy state, so the bound "
          "need not hold for it: it exceeds the bound from 8 qubits on (at 10 "
          "qubits 7.459 > 6.919 bits, ok: false).", _bounds_options)
def _cmd_bounds(p, ns) -> int:
    if ns.group == "su2" and ns.copies is not None:
        p.error("--copies sets N for --group finite; --group su2 reads no copy count")
    ns.copies = 3 if ns.copies is None and ns.group == "finite" else ns.copies
    meta = _meta("bounds", ns)
    if ns.group == "finite":
        rep = _load_finite_rep(ns.rep) if ns.rep else quaternion_rep()
        rho = _load_state(ns.state) if ns.state else random_density_operator(
            rep.dim, np.random.default_rng(ns.seed))
        report = finite_group_bound_check(rep, rho, ns.copies)
        result = {"group_order": report.group_order, "conjugation_bits": report.conjugation_bits,
                  "ok": report.ok, "rows": [{"N": r.copies, "A_bits": r.asymmetry, "bound_bits": r.bound,
                                             "ok": r.ok} for r in report.rows]}
        header = ("N", "A_bits", "bound_bits", "conjugation_bits", "ok")
        rows = [(r.copies, r.asymmetry, r.bound, report.conjugation_bits, r.ok) for r in report.rows]
        _emit(ns, meta, result, header, rows)
        return 0
    if ns.group == "su2":
        if ns.qubits is None:
            raise ValueError("--group su2 needs --qubits")
        rep = build_collective_spin_rep(ns.qubits)
        report = su2_bound_check(rep, [maximal_asymmetry_state("su2", rep=rep)])
        header = ("exact_bits", "asymptotic_bits", "measured_bits", "ok")
        row = (report.bound.exact_bits, report.bound.asymptotic_bits, report.measured[0], report.ok)
        _emit(ns, meta, dict(zip(header, row)), header, [row])
        return 0
    raise ValueError("bounds supports --group finite or --group su2")


def _ree_options(p):
    p.add_argument("--family", choices=("bell-diagonal",), default="bell-diagonal")
    p.add_argument("--p", type=float, help="mixing weight for the bell-diagonal family")
    p.add_argument("--sweep", type=_weights,
                   help="comma-separated p values in [0, 1]; emits one row per value")
    p.add_argument("--state", help="bipartite state JSON (overrides the family)")
    p.add_argument("--dims", type=_dims, default="2,2", help="dA,dB for --state")
    p.add_argument("--grid", type=int, default=64,
                   help="angle spacing pi/grid x 2 pi/grid of the two-qubit scan over theta in [0, pi/4]")
    p.add_argument("--side", choices=("A", "B"), default="B",
                   help="subsystem to dephase for non-qubit inputs")
    p.add_argument("--random-trials", type=_count, default=0,
                   help="Haar basis draws searched beside the computational basis (non-qubit pairs)")


@_command("ree", "dephasing bound sandwich on the relative entropy of entanglement", _ree_options)
def _cmd_ree(p, ns) -> int:
    meta = _meta("ree", ns)

    if ns.sweep:
        ps = [float(x) for x in ns.sweep.split(",")]
        reports = optimize_two_qubit_bounds([bell_diagonal_state(pv) for pv in ps],
                                            grid=ns.grid, side=ns.side)
        rows = [(pv, rep.upper, rep.lower, rep.theta, rep.gamma, rep.tight)
                for pv, rep in zip(ps, reports)]
        header = ("p", "upper", "lower", "theta", "gamma", "tight")
        _emit(ns, meta, [dict(zip(header, r)) for r in rows], header, rows)
        return 0

    if ns.state:
        bip = BipartiteState(*ns.dims, _load_state(ns.state))
    else:
        if ns.p is None:
            raise ValueError("ree needs --p, --sweep or --state")
        bip = bell_diagonal_state(ns.p)
    if bip.dim_a == 2 and bip.dim_b == 2:
        report = optimize_two_qubit_bound(bip, grid=ns.grid, side=ns.side)
    else:
        report = optimize_dephasing_bound(bip, random_trials=ns.random_trials,
                                          seed=ns.seed, side=ns.side)
    result = report.to_json_dict()
    header = tuple(sorted(result))
    _emit(ns, meta, result, header, [tuple(result[k] for k in header)])
    return 0


def _estimate_options(p):
    p.add_argument("--rep", help="finite group JSON; defaults to the qubit Z2 {I, Z}")
    p.add_argument("--charges", help="charge grading JSON for a u1 phase subgroup")
    p.add_argument("--subgroup", type=_count, default=0,
                   help="order M of the Z_M phase subgroup (with --charges)")
    p.add_argument("--state", required=True)
    p.add_argument("--povms", type=_count, default=0, help="extra random POVMs to try")


@_command("estimate", "Holevo-bound estimation report for a group orbit", _estimate_options)
def _cmd_estimate(p, ns) -> int:
    if ns.rep and (ns.charges or ns.subgroup):
        p.error("--rep cannot be combined with --charges or --subgroup")
    if bool(ns.charges) != bool(ns.subgroup):
        p.error("--charges and --subgroup M go together: the Z_M phase subgroup needs both")
    if ns.charges:
        grading = charge_grading_from_json(_load_json(ns.charges))
        rep = cyclic_phase_rep(grading.charges, ns.subgroup)
    elif ns.rep:
        rep = _load_finite_rep(ns.rep)
    else:
        rep = z2_phase_flip_rep()
    rho = _load_state(ns.state)
    rng = np.random.default_rng(ns.seed)
    extra = [random_povm(rho.dim, rep.order, rng) for _ in range(ns.povms)]
    report = holevo_bound_check(rep, rho, povms=extra)
    result = {
        "A_G": report.asymmetry,
        "best_info": report.best_info,
        "povm": report.best_label,
        "ratio": report.ratio,
        "ok": report.ok,
        "tried": [{"povm": k, "info": v} for k, v in report.results],
    }
    _emit(ns, _meta("estimate", ns), result,
          ("povm", "info"), [(k, v) for k, v in report.results])
    return 0


# ---------------------------------------------------------------------------
# verify: the seeded invariant battery


def _verify_checks(seed: int):
    rng = np.random.default_rng(seed)

    def klein():
        worst, states = 0.0, _density_operators(4, rng, 40)  # 20 pairs (a, b), a drawn first
        for a, b in zip(states[0::2], states[1::2]):
            worst = min(worst, relative_entropy(a, b))
        return worst >= -KLEIN_TOL, f"min sampled relative entropy {worst:.2e} (floor -{KLEIN_TOL:.0e})"

    def twirl_channels():
        x_rng, unital, idempotent = np.random.default_rng(seed), 0.0, 0.0  # the shared rng stays as is
        for tw in (TwirlOperation.finite(z2_phase_flip_rep()), TwirlOperation.finite(quaternion_rep()),
                   TwirlOperation.u1(ChargeGrading([0, 1, 1, 2])),
                   TwirlOperation.su2(build_collective_spin_rep(2))):
            eye, e_x = np.eye(tw.dim), tw.apply_matrix(random_hermitian(tw.dim, x_rng))
            unital = max(unital, float(np.abs(tw.apply_matrix(eye) - eye).max()))
            idempotent = max(idempotent, float(np.abs(tw.apply_matrix(e_x) - e_x).max()))
        return unital <= IDENTITY_TOL and idempotent <= COMPOSED_TOL, \
            (f"finite/u1/su2 twirls: max |E(I) - I| {unital:.1e} (tol {IDENTITY_TOL:.0e}), "
             f"max |E(E(X)) - E(X)| {idempotent:.1e} (tol {COMPOSED_TOL:.0e})")

    def minimizer_identity():
        gradings = TwirlOperation.u1(ChargeGrading([0, 1, 2]))
        worst = 0.0
        for rho in _density_operators(3, rng, 10):
            res = g_asymmetry(gradings, rho)
            worst = max(worst, abs(res.asymmetry - relative_entropy(rho, res.twirled_state)))
        return worst <= VERIFY_TOL, f"max |A - S(rho||G(rho))| = {worst:.2e} (tol {VERIFY_TOL:.0e})"

    def channel_identity():
        worst = 0.0
        for _ in range(5):
            ch = random_unital_idempotent_channel(5, rng)
            rho = random_density_operator(5, rng)
            gap = relative_entropy_to_image(ch, rho)
            worst = max(worst, abs(gap - relative_entropy(rho, ch.apply(rho))))
        return worst <= VERIFY_TOL, f"max identity deviation {worst:.2e} (tol {VERIFY_TOL:.0e})"

    def holevo():
        plus = PureState(np.array([1, 1]) / math.sqrt(2)).projector()
        report = holevo_bound_check(z2_phase_flip_rep(), plus,
                                    povms=[random_povm(2, 2, rng) for _ in range(3)])
        dev = abs(report.best_info - 1.0)
        return report.ok and dev <= VERIFY_TOL, \
            (f"best info {report.best_info:.6f} vs cap {report.asymmetry:.6f} (slack {BOUND_TOL:.0e}), "
             f"|info - 1| {dev:.2e} (tol {VERIFY_TOL:.0e})")

    def finite_bound():
        rho = random_density_operator(2, rng)
        report = finite_group_bound_check(quaternion_rep(), rho, 2)
        return report.ok, (f"max A_G(rho^N) {max(r.asymmetry for r in report.rows):.6f} <= log2|G| = 3 "
                           f"(slack {BOUND_TOL:.0e}) for Q8, N <= 2")

    def gaussian_law():
        a200 = u1_ncopy_asymmetry([0.5, 0.5], 200)
        model = 0.5 * math.log2(2 * math.pi * 200 * 0.25) + GAUSSIAN_CONSTANT_BITS
        return abs(a200 - model) <= 0.02 and a200 / 200 <= 0.05, \
            (f"A(200) = {a200:.5f}, model {model:.5f}, |A - model| {abs(a200 - model):.2e} "
             f"(tol 0.02), A/N {a200 / 200:.2e} (tol 0.05)")

    def witness():
        report = variance_discontinuity_witness([8, 16, 64, 256])
        return report.trace_distances_decreasing and report.ratios_increasing, \
            "trace distance down, variance gap / log2 n up"

    def relinearized():
        report = relinearized_monotone([0.5, 0.5], [100, 200])
        return report.relative_change(100, 200) < 0.02, \
            f"L(A)/N change {report.relative_change(100, 200):.2e} (tol 0.02)"

    def ree_family():
        report = optimize_two_qubit_bound(bell_diagonal_state(0.75))
        target = 1.0 - binary_entropy(0.75)
        gap, dev = abs(report.upper - report.lower), abs(report.upper - target)
        return report.tight and dev <= TIGHT_TOL, \
            (f"upper {report.upper:.6f}, lower {report.lower:.6f}, |upper - lower| {gap:.2e} "
             f"and |upper - target| {dev:.2e} (tol {TIGHT_TOL:.0e})")

    return [
        ("klein_nonnegativity", klein),
        ("twirl_channels_unital_idempotent", twirl_channels),
        ("asymmetry_equals_distance_to_twirl", minimizer_identity),
        ("entropy_gap_equals_distance_to_image", channel_identity),
        ("holevo_cap_and_z2_saturation", holevo),
        ("finite_group_bound", finite_bound),
        ("gaussian_entropy_law", gaussian_law),
        ("variance_discontinuity_witness", witness),
        ("relinearized_monotone_plateau", relinearized),
        ("bell_diagonal_bound_tight", ree_family),
    ]


@_command("verify", "run the seeded invariant suite")
def _cmd_verify(p, ns) -> int:
    results = []
    for name, check in _verify_checks(ns.seed):
        ok, detail = check()
        results.append({"check": name, "ok": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    result = {"all_ok": all(r["ok"] for r in results), "checks": results}
    if ns.out or ns.format == "csv":
        _emit(ns, _meta("verify", ns), result, ("check", "ok", "detail"),
              [(r["check"], r["ok"], r["detail"]) for r in results])
    return 0 if result["all_ok"] else 2


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    if argv[0] in ("--version",):
        sys.stdout.write(f"frameness {__version__}\n")
        return 0
    name, rest = argv[0], argv[1:]
    if name not in COMMANDS:
        sys.stderr.write(f"unknown command: {name}\n\n{_USAGE}")
        return 64
    try:
        p = _parser(name)
        return COMMANDS[name][2](p, p.parse_args(rest))
    except SystemExit as exc:  # argparse --help or usage errors
        return int(exc.code or 0)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 3
    except (FramenessError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
