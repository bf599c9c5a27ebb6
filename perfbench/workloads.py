"""The benchmark's four workloads, each driven through public APIs.

A workload owns its inputs and state.  The runner (:mod:`run`) calls:

* :meth:`Workload.setup` — one fresh set-up, timed by the runner (the
  reported ``setup_s`` is the median of repeated set-ups in one run);
  ``per_op_setup`` workloads are set up afresh before every operation;
* :meth:`Workload.operation` — one timed operation; it returns a result
  that :meth:`Workload.check` verifies after the timed loop;
* the traced-run hooks: :meth:`Workload.setup` with a tracer builds the
  traced state, :meth:`Workload.trace_operation` runs one operation
  untraced and traced and reports whether the two answers are bitwise
  equal.

Inputs derive from the workload seed only: per-operation generators are
``default_rng([seed, TAG, index])``, wafer seed keys ``(seed, TAG,
index)``, and the request bodies come from ``default_rng([seed,
TAG])``.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.montecarlo.chip_sim as chip_sim
import repro.montecarlo.wafer_sim as wafer_sim
import repro.netlist.openrisc as openrisc
import repro.service.app as service_app
import repro.serving.service as serving_service
import repro.timing.parametric as timing_parametric
from repro.analysis.mispositioned import MisalignmentImpactModel
from repro.cells.nangate45 import build_nangate45_library
from repro.core.calibration import CalibratedSetup
from repro.core.coopt import ParetoCoOptimizer, process_grid
from repro.core.count_model import PoissonCountModel
from repro.core.failure import CNFETFailureModel
from repro.core.optimizer import CoOptimizationFlow
from repro.growth.pitch import ExponentialPitch, pitch_distribution_from_cv
from repro.growth.spatial import SpatialFieldSpec
from repro.growth.types import CNTTypeModel
from repro.growth.wafer import WaferGrowthModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.netlist.placement import RowPlacement
from repro.serving import YieldService
from repro.service.app import YieldApp
from repro.service.schemas import QueryRequest
from repro.surface import GridAxis, SurfaceBuilder, SurfaceStore, SweepSpec
from repro.surface.builder import ExactEvaluator
from repro.timing import TimingMonteCarlo

from tracing import TimingBackend, Tracer, patched

__all__ = ["WORKLOADS", "make_workload", "trace_targets"]

#: Sparse-growth corner of the chip and wafer workloads: per-device
#: failures are frequent enough for the closed-form checks to bite.
TYPE_MODEL = CNTTypeModel(1.0 / 3.0, 1.0, 0.3)

#: |z| limit of every statistical check against a closed form.
Z_LIMIT = 6.0


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _after_track_batch(tracer: Tracer):
    def count_in_span(batch, *args, backend=None, **kwargs):
        if isinstance(backend, TimingBackend):
            tracer.count("engine.span_slots", int(batch.valid.sum()))
    return count_in_span


def _after_wafer(tracer: Tracer):
    # The stacked wafer kernel returns no track positions, so its useful
    # slots are the expected in-span tracks per trial, W_max / mean pitch
    # (exact in expectation for exponential gaps).
    def expected_in_span(result, *args, backend=None, **kwargs):
        if isinstance(backend, TimingBackend):
            w_max = max(result.widths_nm)
            tracer.count("engine.span_slots", sum(
                d.n_trials * w_max / d.mean_pitch_nm for d in result.dice
            ))
    return expected_in_span


def _after_coopt(tracer: Tracer):
    def result_fields(result, *args, **kwargs):
        tracer.count("coopt.candidates", result.candidates_evaluated)
        tracer.count("coopt.pruned", result.candidates_pruned)
        tracer.count("coopt.escalated", result.candidates_escalated)
        tracer.count("coopt.surface_build_s", result.surface_build_seconds)
        tracer.count("coopt.inner_loop_s", result.inner_loop_seconds)
    return result_fields


def trace_targets(tracer: Tracer):
    """Every wrapped public function, at the name its caller looks it up by."""
    return [
        (openrisc, "build_openrisc_like_design", "netlist.design", None),
        (ChipMonteCarlo, "__init__", "chip_sim.geometry", None),
        (ChipMonteCarlo, "run", "chip_sim.run", None),
        (chip_sim, "sample_track_batch", "engine.sample_track_batch",
         _after_track_batch(tracer)),
        (chip_sim, "count_in_windows_flat", "engine.count_in_windows_flat", None),
        (WaferGrowthModel, "generate", "growth.wafer_generate", None),
        (wafer_sim, "simulate_wafer", "wafer_sim.simulate_wafer",
         _after_wafer(tracer)),
        (SurfaceBuilder, "build", "surface.build", None),
        (QueryRequest, "from_payload", "service.schema_parse", None),
        (service_app, "query_response", "service.response_build", None),
        (YieldService, "query", "serving.query", None),
        (serving_service, "interpolate_log_failure", "serving.interpolate", None),
        (serving_service, "yield_from_uniform_failure_probability_array",
         "core.yield_transform", None),
        (ParetoCoOptimizer, "run", "coopt.run", _after_coopt(tracer)),
        (ParetoCoOptimizer, "validate", "coopt.validate", None),
        (CoOptimizationFlow, "run", "core.baseline_flow", None),
        (TimingMonteCarlo, "from_chip", "timing.from_chip", None),
        (TimingMonteCarlo, "run", "timing.run", None),
        (timing_parametric, "propagate_arrivals", "timing.sta", None),
    ]


class Workload:
    """Base class: the runner's view of one workload."""

    name = ""
    #: True when every operation gets its own fresh (timed) set-up.
    per_op_setup = False

    def __init__(self, seed: int, size: Dict[str, object], workdir: Path) -> None:
        self.seed = int(seed)
        self.size = size
        self.workdir = workdir
        self.setup_repeats = int(size["setup_repeats"])
        self.trace_ops = int(size["trace_ops"])

    def setup(self, index: int = 0, tracer: Optional[Tracer] = None) -> None:
        raise NotImplementedError

    def operation(self, index: int, traced: bool = False):
        raise NotImplementedError

    def check(self, index: int, result) -> bool:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """Whether two answers to the same inputs are bitwise equal."""
        return a == b

    def trace_operation(self, index: int, tracer: Tracer) -> Dict[str, object]:
        """Operation ``index`` untraced and traced; compare the answers.

        The order alternates with the index so that neither side always
        runs on caches the other just warmed.
        """
        def untraced():
            start = time.perf_counter()
            result = self.operation(index)
            return result, time.perf_counter() - start

        def traced():
            with patched(tracer, trace_targets(tracer)):
                start = time.perf_counter()
                result = self.operation(index, traced=True)
                return result, time.perf_counter() - start

        if index % 2:
            (t_result, traced_s), (plain, untraced_s) = traced(), untraced()
        else:
            (plain, untraced_s), (t_result, traced_s) = untraced(), traced()
        return {
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "equal": self.same(plain, t_result),
            "result": plain,
        }

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process that does the work."""
        return peak_rss_mb()

    def close(self) -> None:
        """Release everything the workload started."""


# ---------------------------------------------------------------------------
# chip-mc
# ---------------------------------------------------------------------------


class ChipMC(Workload):
    """``ChipMonteCarlo.run`` on the placed OpenRISC-like block."""

    name = "chip-mc"
    TAG = 0xC419
    PITCH_NM = 20.0

    def __init__(self, seed, size, workdir) -> None:
        super().__init__(seed, size, workdir)
        self.plain: Optional[ChipMonteCarlo] = None
        self.traced: Optional[ChipMonteCarlo] = None
        self._expected: Optional[float] = None

    def setup(self, index=0, tracer=None) -> None:
        library = build_nangate45_library()
        design = openrisc.build_openrisc_like_design(
            library, scale=float(self.size["scale"]), seed=2010
        )
        placement = RowPlacement(design, row_width_nm=40_000.0)
        simulator = ChipMonteCarlo(
            placement,
            pitch=ExponentialPitch(self.PITCH_NM),
            type_model=TYPE_MODEL,
            backend=TimingBackend(tracer) if tracer is not None else None,
        )
        if tracer is None:
            self.plain = simulator
        else:
            self.traced = simulator

    def operation(self, index, traced=False):
        simulator = self.traced if traced else self.plain
        return simulator.run(
            int(self.size["n_trials"]), _rng(self.seed, self.TAG, index)
        )

    def expected_failing_devices(self) -> float:
        """Σ counts · pF(W) over the placement's width classes (Eq. 2.2)."""
        if self._expected is None:
            model = CNFETFailureModel.from_type_model(
                PoissonCountModel(self.PITCH_NM), TYPE_MODEL
            )
            widths, counts = self.plain.width_class_histogram()
            # A zero-width window captures no tube, so its device always fails.
            self._expected = sum(
                c * (model.failure_probability(w) if w > 0 else 1.0)
                for w, c in zip(widths, counts)
            )
        return self._expected

    def check(self, index, result) -> bool:
        se = result.std_failing_devices / math.sqrt(result.n_trials)
        if not se > 0:
            return False
        z = (result.mean_failing_devices - self.expected_failing_devices()) / se
        return abs(z) < Z_LIMIT and result.device_count == self.plain.device_count


# ---------------------------------------------------------------------------
# wafer-map
# ---------------------------------------------------------------------------


class WaferMap(Workload):
    """``simulate_wafer`` over a correlated-field wafer with de-rating."""

    name = "wafer-map"
    TAG = 0x57A7
    WIDTHS_NM = (90.0, 105.0, 120.0, 150.0, 178.0)
    DEVICE_COUNTS = (400.0, 300.0, 250.0, 200.0, 150.0)
    PITCH = ExponentialPitch(4.0)
    MISALIGNMENT = MisalignmentImpactModel(
        band_width_nm=103.0, cnt_length_um=200.0, min_cnfet_density_per_um=1.8
    )

    def __init__(self, seed, size, workdir) -> None:
        super().__init__(seed, size, workdir)
        self.wafer = None
        self.backend: Optional[TimingBackend] = None

    def setup(self, index=0, tracer=None) -> None:
        self.wafer = WaferGrowthModel(
            center_pitch_nm=4.0,
            die_size_mm=float(self.size["die_size_mm"]),
            density_field=SpatialFieldSpec(sigma=0.04, correlation_length_mm=25.0),
            misalignment_field=SpatialFieldSpec(sigma=1.0, correlation_length_mm=30.0),
        ).generate(seed_key=(self.seed, self.TAG))
        if tracer is not None:
            self.backend = TimingBackend(tracer)

    def operation(self, index, traced=False):
        return wafer_sim.simulate_wafer(
            self.wafer,
            self.PITCH,
            TYPE_MODEL,
            self.WIDTHS_NM,
            self.DEVICE_COUNTS,
            n_trials=int(self.size["n_trials"]),
            seed_key=(self.seed, self.TAG, index),
            misalignment=self.MISALIGNMENT,
            backend=self.backend if traced else None,
        )

    def check(self, index, result) -> bool:
        """Wafer-pooled Poisson closed form per width class.

        Exponential gaps make each die's count Poisson(W / mean pitch), so
        ``pf ** N`` has mean ``exp(-λ(1 - pf))`` and second moment
        ``exp(-λ(1 - pf²))``.  Per class, the sum over dies of pF × the
        die's relaxation factor is compared with the sum of closed forms,
        in units of the closed-form standard error.  That sum is heavy-
        tailed upwards: one trial with very few tubes can add many
        standard errors.  The upper bound is therefore only applied to
        classes where such a trial is expected less than once in a million
        operations; the lower bound holds for every class.  (The per-die
        reported standard errors are sample errors of the same heavy-
        tailed values; at 512 trials they understate the error of the wide
        classes by orders of magnitude, so they cannot carry a check.)
        """
        if result.die_count != self.wafer.die_count:
            return False
        pf = TYPE_MODEL.per_cnt_failure_probability
        n = result.n_trials
        for q, width in enumerate(self.WIDTHS_NM):
            lam = np.array([width / d.mean_pitch_nm for d in result.dice])
            mean = np.exp(-lam * (1.0 - pf))
            sd = math.sqrt(np.sum(np.exp(-lam * (1.0 - pf * pf)) - mean ** 2) / n)
            total = sum(
                d.failure_probabilities[q] * d.relaxation_factor for d in result.dice
            )
            z = (total - mean.sum()) / sd
            if not z > -Z_LIMIT:
                return False
            if z >= Z_LIMIT and self._jumps_per_operation(lam, sd, n) < 1e-6:
                return False
        return True

    @staticmethod
    def _jumps_per_operation(lam: np.ndarray, sd: float, n: int) -> float:
        """Expected trials per operation whose ``pf ** N / n`` exceeds Z_LIMIT·sd."""
        pf = TYPE_MODEL.per_cnt_failure_probability
        n_star = math.floor(math.log(Z_LIMIT * sd * n) / math.log(pf))
        expected = 0.0
        for k in range(n_star + 1):
            expected += float(np.sum(
                np.exp(-lam + k * np.log(lam) - math.lgamma(k + 1))
            ))
        return expected * n


# ---------------------------------------------------------------------------
# serve-batch32
# ---------------------------------------------------------------------------


class _Connection:
    """One persistent HTTP/1.1 keep-alive connection (closed-loop client)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()

    def request(self, raw: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(raw)
        buffer = self.buffer
        while b"\r\n\r\n" not in buffer:
            self._fill()
        head_end = buffer.index(b"\r\n\r\n")
        head = bytes(buffer[:head_end])
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        end = head_end + 4 + length
        while len(buffer) < end:
            self._fill()
        body = bytes(buffer[head_end + 4:end])
        del buffer[:end]
        return status, body

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


def _http_request(method: bytes, path: bytes, body: bytes = b"") -> bytes:
    return (
        b"%s %s HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n"
        b"content-length: %d\r\n\r\n%s" % (method, path, len(body), body)
    )


def _asgi_call(app, body: bytes) -> Tuple[int, bytes]:
    """One ``POST /v1/query`` through the ASGI app, in-process, no socket.

    The app never suspends on these ``receive``/``send`` callables, so the
    coroutine runs to completion on its first step; no event loop needed.
    """
    sent: List[dict] = []

    async def receive():
        return {"type": "http.request", "body": body, "more_body": False}

    async def send(message):
        sent.append(message)

    scope = {"type": "http", "method": "POST", "path": "/v1/query"}
    coroutine = app(scope, receive, send)
    try:
        coroutine.send(None)
    except StopIteration:
        pass
    else:  # pragma: no cover - the app awaited something real
        coroutine.close()
        raise RuntimeError("the ASGI app suspended")
    return sent[0]["status"], sent[1]["body"]


class ServeBatch32(Workload):
    """Closed-loop ``POST /v1/query`` sessions at batch 32 through ``YieldApp``.

    One operation is a session: each distinct request body (64 of them)
    once, each sent after the previous reply.  With one request per
    operation a run holds tens of thousands of samples, so op_tail_s
    would be a p99.95 set by how many scheduler stalls of a shared host
    the run happens to catch; it spread 28-107 % between identical
    15 s runs.  A session averages those stalls and keeps op_tail_s
    near p98.

    End-to-end runs drive the service's ASGI app in-process.  Over a
    keep-alive socket to ``repro.cli serve`` the request rate of identical
    runs spread from 725 to 1,224 req/s on a 2-core host, where client and
    server compete for the cores: wider than any bound the benchmark may
    set.  The traced run also boots the real server and sends every
    request over its socket, so the boot time (``service.boot_s``) and the
    socket's share of a session (``service.http_s``) stay measured.
    """

    name = "serve-batch32"
    TAG = 0x5E4E
    BATCH = 32
    W_RANGE = (60.0, 300.0)
    D_RANGE = (150.0, 400.0)
    DEVICE_COUNT = 3.3e7
    BOOT_TIMEOUT_S = 60.0

    def __init__(self, seed, size, workdir) -> None:
        super().__init__(seed, size, workdir)
        rng = np.random.default_rng([self.seed, self.TAG])
        self.points = [
            (rng.uniform(*self.W_RANGE, self.BATCH),
             rng.uniform(*self.D_RANGE, self.BATCH))
            for _ in range(int(size["bodies"]))
        ]
        self.app: Optional[YieldApp] = None
        self.server: Optional[subprocess.Popen] = None
        self.connection: Optional[_Connection] = None
        self.store_root: Optional[Path] = None
        self.surface = None
        self.bodies: List[bytes] = []
        self.tracer: Optional[Tracer] = None
        self.reference: Dict[int, Tuple[int, bytes]] = {}
        self._verified: Dict[int, bool] = {}
        self._setups = 0

    # -- set-up ----------------------------------------------------------------

    def _spec(self) -> SweepSpec:
        setup = CalibratedSetup()
        w_points, d_points = self.size["grid"]
        return SweepSpec(
            scenario="device",
            width_axis=GridAxis.from_range("width_nm", *self.W_RANGE, w_points),
            density_axis=GridAxis.from_range(
                "cnt_density_per_um", *self.D_RANGE, d_points
            ),
            pitch=pitch_distribution_from_cv(setup.mean_pitch_nm, setup.pitch_cv),
            per_cnt_failure=setup.corner.per_cnt_failure_probability,
            correlation=setup.correlation,
        )

    def setup(self, index=0, tracer=None) -> None:
        self.close()
        self._setups += 1
        self.store_root = self.workdir / f"store-{self._setups}"
        self.surface = SurfaceBuilder(self._spec()).build()
        SurfaceStore(self.store_root).save(self.surface)
        self.app = YieldApp(YieldService(store=self.store_root))
        self.bodies = [self._body(i) for i in range(len(self.points))]
        if tracer is not None:
            self.tracer = tracer
            tracer.span("service.boot", self._boot)

    def _body(self, i: int) -> bytes:
        widths, densities = self.points[i]
        return json.dumps({
            "surface": self.surface.key,
            "width_nm": widths.tolist(),
            "cnt_density_per_um": densities.tolist(),
            "device_count": self.DEVICE_COUNT,
        }).encode("utf-8")

    def _boot(self) -> None:
        """Start the server on a free port and wait for ``/healthz`` 200."""
        log_path = self.workdir / f"server-{self._setups}.log"
        env = dict(os.environ)
        src = str(Path(serving_service.__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with open(log_path, "wb") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--store", str(self.store_root), "--host", "127.0.0.1",
                 "--port", "0", "--workers", "1"],
                env=env, stdout=subprocess.DEVNULL, stderr=log,
            )
        deadline = time.monotonic() + self.BOOT_TIMEOUT_S
        port = None
        while port is None:
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"server exited during start-up (code {self.server.returncode})"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("server did not announce its port in time")
            for line in log_path.read_text(errors="replace").splitlines():
                if line.startswith("serving on http://"):
                    port = int(line.rsplit(":", 1)[1])
            if port is None:
                time.sleep(0.005)
        self.connection = _Connection(port)
        status, _ = self.connection.request(_http_request(b"GET", b"/healthz"))
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    # -- operations ------------------------------------------------------------

    def operation(self, index, traced=False):
        """One session; every answer is compared with its body's reference.

        Comparing bytes in the loop keeps only a flag per request; the
        reference answer of each distinct body is verified in :meth:`check`.
        """
        flags = []
        for i, body in enumerate(self.bodies):
            if traced:
                answer = self.tracer.span("service.app", _asgi_call, self.app, body)
            else:
                answer = _asgi_call(self.app, body)
            reference = self.reference.setdefault(i, answer)
            flags.append(answer[0] == 200 and answer == reference)
        return tuple(flags)

    def check(self, index, result) -> bool:
        for i in range(len(self.bodies)):
            if i not in self._verified:
                self._verified[i] = self._verify_reference(i)
        return all(result) and all(self._verified.values())

    def _verify_reference(self, i: int) -> bool:
        """The served answer equals ``YieldService.query`` and brackets the exact pF."""
        status, raw = self.reference[i]
        if status != 200:
            return False
        served = json.loads(raw)
        widths, densities = self.points[i]
        local = YieldService(store=self.store_root).query(
            self.surface.key, widths, cnt_density_per_um=densities,
            device_count=self.DEVICE_COUNT,
        )
        for name in ("failure_probability", "failure_lower", "failure_upper",
                     "chip_yield", "yield_lower", "yield_upper"):
            if served[name] != json.loads(json.dumps(getattr(local, name).tolist())):
                return False
        log_exact, _ = ExactEvaluator.from_surface(self.surface).points(
            widths, densities
        )
        exact = np.exp(log_exact)
        lower = np.asarray(served["failure_lower"], dtype=float)
        upper = np.asarray(served["failure_upper"], dtype=float)
        return bool(np.all((lower <= exact) & (exact <= upper)))

    def trace_operation(self, index, tracer):
        """The session over the real server's socket, then in-process."""
        start = time.perf_counter()
        answers = [
            self.connection.request(_http_request(b"POST", b"/v1/query", body))
            for body in self.bodies
        ]
        http_s = time.perf_counter() - start
        row = super().trace_operation(index, tracer)
        row["http_s"] = http_s
        row["equal"] = row["equal"] and all(
            answer == self.reference[i] for i, answer in enumerate(answers)
        )
        return row

    def close(self) -> None:
        if self.app is not None:
            self.app.refinement.close()
            self.app = None
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait(timeout=10.0)
            self.server = None


# ---------------------------------------------------------------------------
# coopt-front
# ---------------------------------------------------------------------------


class CooptFront(Workload):
    """``ParetoCoOptimizer.run`` with front validation, fresh optimizer per op."""

    name = "coopt-front"
    TAG = 0xC0F7
    per_op_setup = True
    YIELD_TARGET = 0.99

    def __init__(self, seed, size, workdir) -> None:
        super().__init__(seed, size, workdir)
        self.optimizer: Optional[ParetoCoOptimizer] = None
        self.traced_optimizer: Optional[ParetoCoOptimizer] = None
        self.first_front = None

    def setup(self, index=0, tracer=None) -> None:
        setup = CalibratedSetup(yield_target=self.YIELD_TARGET)
        design = openrisc.openrisc_width_histogram(setup.chip_transistor_count)
        n = int(self.size["densities"])
        rho = [200.0 + i * (150.0 / (n - 1)) for i in range(n)]
        op_seed = int(np.random.SeedSequence(
            [self.seed, self.TAG, index]).generate_state(1)[0])
        self.optimizer = ParetoCoOptimizer(
            setup=setup,
            widths_nm=design.widths_nm,
            counts=design.counts,
            process_points=process_grid(densities_per_um=rho),
            extra_levels=int(self.size["extra_levels"]),
            max_combos=2_000_000,
            seed=op_seed,
        )

    def operation(self, index, traced=False):
        optimizer = self.traced_optimizer if traced else self.optimizer
        return optimizer.run(
            validate_trials=int(self.size["validate_trials"]), validate_top=1
        )

    def check(self, index, result) -> bool:
        if self.first_front is None:
            self.first_front = result.front
        return (
            result.meets_target
            and result.beats_uniform
            and len(result.validations) == 1
            and abs(result.validations[0].z_score) < Z_LIMIT
            and result.front == self.first_front
        )

    def same(self, a, b) -> bool:
        # The two wall-clock fields are measurements, not answers.
        untimed = dict(surface_build_seconds=0.0, inner_loop_seconds=0.0)
        return dataclasses.replace(a, **untimed) == dataclasses.replace(b, **untimed)

    def trace_operation(self, index, tracer):
        # Each side gets a fresh optimizer: the traced run must not reuse
        # the surfaces the untraced run built.
        self.setup(index)
        self.traced_optimizer = self.optimizer
        self.setup(index)
        return super().trace_operation(index, tracer)


WORKLOADS = {cls.name: cls for cls in (ChipMC, WaferMap, ServeBatch32, CooptFront)}

#: Full-size parameters (the benchmark) and tiny ones (the self-test).
#: Odd traced-operation counts keep the medians of exact counters whole.
SIZES = {
    "full": {
        "chip-mc": dict(scale=0.25, n_trials=100, setup_repeats=7, trace_ops=25),
        "wafer-map": dict(die_size_mm=5.0, n_trials=512, setup_repeats=15,
                          trace_ops=11),
        "serve-batch32": dict(grid=(17, 9), bodies=64, setup_repeats=25,
                              trace_ops=31),
        "coopt-front": dict(densities=13, extra_levels=40, validate_trials=256,
                            setup_repeats=0, trace_ops=5),
    },
    "tiny": {
        "chip-mc": dict(scale=0.05, n_trials=16, setup_repeats=2, trace_ops=3),
        "wafer-map": dict(die_size_mm=25.0, n_trials=64, setup_repeats=2,
                          trace_ops=3),
        "serve-batch32": dict(grid=(5, 3), bodies=4, setup_repeats=2,
                              trace_ops=3),
        "coopt-front": dict(densities=3, extra_levels=4, validate_trials=32,
                            setup_repeats=0, trace_ops=1),
    },
}


def make_workload(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """Instantiate workload ``name`` at ``size`` (``"full"`` or ``"tiny"``)."""
    return WORKLOADS[name](seed, SIZES[size][name], workdir)
