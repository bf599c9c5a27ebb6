"""Parametric (timing) yield from the same per-trial tracks as functional yield.

The paper's correlation argument is exploited twice in one run: the chunk
worker samples the chip's track windows exactly once per trial — through
the *same* kernel and generator consumption as
:meth:`~repro.montecarlo.chip_sim.ChipMonteCarlo.run` — and answers both

* **functional yield**: does any device window open (too few working
  tubes) or short (a surviving metallic tube),
* **parametric yield**: does the critical path meet the clock period, with
  every gate's delay scaled by the drive current its captured tubes carry
  (σ(Ion)/µ(Ion) ∝ 1/√N made concrete per trial).

Each working in-span tube draws one diameter, so devices that share tubes
share their diameters too: gates on one window see identical currents, and
overlapping windows covary through the tubes they have in common.  The
delays along a path inherit that correlation, a heavier dependence
structure than independent per-gate sampling would predict.
Trials are processed in fixed-size chunks through
:func:`~repro.montecarlo.engine.run_chunked`; each chunk consumes its own
``spawn_key``-derived stream, so results are bitwise invariant to the
:class:`~repro.resilience.supervise.Execution` (workers, checkpoints).
``oracle=True`` swaps the batched levelized STA for the per-trial scalar
walk — same sampled delays, bitwise-equal critical paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.analysis.delay import GateDelayModel
from repro.core.count_model import CountModel, PoissonCountModel
from repro.device.capacitance import GateCapacitanceModel
from repro.device.current import MIN_TUBE_DIAMETER_NM, CNTCurrentModel
from repro.montecarlo.chip_sim import (
    ChipMonteCarlo,
    _ChipGeometry,
    _chip_window_counts_joint,
    _drawn_pitch,
    _failing_devices,
    _failing_windows,
)
from repro.montecarlo.engine import (
    default_trial_chunk,
    estimate_gap_count,
    run_chunked,
)
from repro.resilience.guards import check_finite
from repro.resilience.supervise import Execution
from repro.timing.graph import TimingGraph
from repro.timing.liberty import DEFAULT_INPUT_SLEW_PS, nominal_node_delays
from repro.timing.sta import (
    critical_path_delays,
    propagate_arrivals,
    propagate_arrivals_scalar,
)


@dataclass(frozen=True)
class TimingYieldResult:
    """Joint functional/parametric outcome of one timing Monte Carlo run.

    ``critical_path_ps`` and ``failing_devices`` are per-trial arrays (the
    full distribution, not just its mean), so callers can re-evaluate the
    yields at any clock period without re-sampling.  ``failing_devices``
    counts the devices that fail functionally in each trial; in the
    from-chip mode it is bitwise the per-trial count
    :meth:`~repro.montecarlo.chip_sim.ChipMonteCarlo.run` reduces, for the
    same root generator and chunking.
    """

    n_trials: int
    t_clk_ps: float
    nominal_critical_path_ps: float
    critical_path_ps: np.ndarray
    failing_devices: np.ndarray

    @property
    def functional_fail(self) -> np.ndarray:
        """Per-trial functional failure: at least one failing device."""
        return self.failing_devices > 0

    @property
    def functional_yield(self) -> float:
        """P(no device fails): no window opens (fewer than
        ``min_working_tubes`` working tubes) and, with shorts modelled,
        none holds a surviving metallic tube."""
        return float(np.mean(~self.functional_fail))

    @property
    def timing_yield(self) -> float:
        """P(critical path ≤ t_clk), regardless of functional state."""
        return self.timing_yield_at(self.t_clk_ps)

    @property
    def combined_yield(self) -> float:
        """P(functional AND critical path ≤ t_clk) — the sellable fraction."""
        return self.combined_yield_at(self.t_clk_ps)

    def timing_yield_at(self, t_clk_ps: float) -> float:
        """Timing yield re-evaluated at another clock period."""
        return float(np.mean(self.critical_path_ps <= float(t_clk_ps)))

    def combined_yield_at(self, t_clk_ps: float) -> float:
        """Combined yield re-evaluated at another clock period."""
        ok = (~self.functional_fail) & (
            self.critical_path_ps <= float(t_clk_ps)
        )
        return float(np.mean(ok))

    def slacks_ps(self) -> np.ndarray:
        """Per-trial critical-path slack ``t_clk − delay`` (may be −inf)."""
        return self.t_clk_ps - self.critical_path_ps


def _delays_from_currents(
    scale_ps_ua: np.ndarray, currents_ua: np.ndarray
) -> np.ndarray:
    """Per-(trial, node) delays from per-node scale and per-trial currents.

    ``scale_ps_ua[v] = nominal_delay_ps[v] × nominal_current_ua[v]`` so that
    ``delay = scale / I_trial`` reproduces the nominal delay at nominal
    current and diverges as the captured tubes thin out; a dead gate
    (zero current) gets ``inf``.  Nodes with zero scale (sinks) stay 0
    regardless of their current.
    """
    delays = np.zeros_like(currents_ua, dtype=float)
    active = scale_ps_ua > 0.0
    if np.any(active):
        with np.errstate(divide="ignore"):
            delays[:, active] = scale_ps_ua[active][None, :] / currents_ua[:, active]
    return delays


@dataclass(frozen=True)
class _CorrelatedPayload:
    """Picklable chunk payload of the track-sharing (from-chip) mode."""

    geometry: _ChipGeometry
    graph: TimingGraph
    node_window: np.ndarray
    scale_ps_ua: np.ndarray
    current_model: CNTCurrentModel
    diameter_mean_nm: float
    diameter_std_nm: float
    scalar_oracle: bool = False

    def slot_currents(
        self, rng: np.random.Generator, tubes: np.ndarray, backend
    ) -> np.ndarray:
        """On-current (µA) of every working in-span tube, zero at other slots.

        ``tubes`` is the slot-major mask of those tubes; one diameter is
        drawn per tube, in slot-major order, so slots that carry no
        working tube consume no draw.  Diameters are normal, clipped at
        :data:`~repro.device.current.MIN_TUBE_DIAMETER_NM`, and converted
        to currents in place before they are scattered into a pooled
        array of the mask's shape.
        """
        diameters = rng.standard_normal(np.count_nonzero(tubes))
        diameters *= self.diameter_std_nm
        diameters += self.diameter_mean_nm
        np.maximum(diameters, MIN_TUBE_DIAMETER_NM, out=diameters)
        currents = backend.empty(tubes.shape, dtype=np.float64)
        currents.fill(0.0)
        currents[tubes] = self.current_model.tube_on_currents_ua(
            diameters, out=diameters
        )
        return currents


def _critical_paths(payload, currents: np.ndarray) -> np.ndarray:
    """Per-trial critical-path delay from per-(trial, node) drive currents."""
    delays = _delays_from_currents(payload.scale_ps_ua, currents)
    propagate = (
        propagate_arrivals_scalar if payload.scalar_oracle else propagate_arrivals
    )
    return critical_path_delays(payload.graph, propagate(payload.graph, delays))


def _sample_node_currents(
    payload: _CorrelatedPayload, n_chunk: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trial failing devices and per-(trial, node) drive currents.

    One pass over the shared tracks: the window kernel
    (:func:`~repro.montecarlo.chip_sim._chip_window_counts_joint`) counts
    the tubes, and sums one diameter's current per working tube over each
    window's working tubes, from the same search.  Nodes on one window
    therefore see the same tubes *and* the same diameters.  The counts
    consume the generator first, exactly as the functional chip
    simulation does, and are judged by its predicate (shorts and
    ``min_working_tubes`` included), so the failing devices are bitwise
    those of a pure functional run with the same root generator and
    chunking.
    """
    geometry = payload.geometry
    working, shorts, currents = _chip_window_counts_joint(
        geometry, n_chunk, rng, slot_values=payload.slot_currents
    )
    failing = _failing_windows(geometry, working, shorts)
    # A window without working tubes carries exactly no current, whatever
    # rounding the running-count difference left: its gates stay dead (inf).
    currents[working == 0] = 0.0
    return _failing_devices(geometry, failing), currents[:, payload.node_window]


def _simulate_timing_chunk(
    payload: _CorrelatedPayload, n_chunk: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk of joint functional/timing trials over shared tracks.

    Returns the per-trial failing devices and critical-path delays.
    """
    failing_devices, currents = _sample_node_currents(payload, n_chunk, rng)
    return failing_devices, _critical_paths(payload, currents)


@dataclass(frozen=True)
class _IndependentPayload:
    """Picklable chunk payload of the per-node independent (ingested) mode."""

    graph: TimingGraph
    widths_nm: np.ndarray
    count_model: CountModel
    per_cnt_success: float
    scale_ps_ua: np.ndarray
    current_model: CNTCurrentModel
    diameter_mean_nm: float
    diameter_std_nm: float
    scalar_oracle: bool = False


def _simulate_independent_chunk(
    payload: _IndependentPayload, n_chunk: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk of independent-per-node timing trials (ingested graphs).

    Without placement geometry there are no shared tracks; every node's
    count is drawn from the count model at its own drive width (unique
    widths grouped, ascending, for a deterministic draw order), and its
    diameters are drawn per node.  A node without working tubes is one
    failing device.
    """
    n_nodes = payload.widths_nm.size
    counts = np.empty((n_chunk, n_nodes), dtype=np.int64)
    for width in np.unique(payload.widths_nm):
        columns = np.flatnonzero(payload.widths_nm == width)
        drawn = payload.count_model.sample(
            float(width), n_chunk * columns.size, rng
        )
        counts[:, columns] = np.asarray(drawn, dtype=np.int64).reshape(
            n_chunk, columns.size
        )
    working = rng.binomial(counts, payload.per_cnt_success)
    failing_devices = (working == 0).sum(axis=1).astype(float)
    currents = payload.current_model.on_currents_from_counts(
        working, rng, payload.diameter_mean_nm, payload.diameter_std_nm
    )
    return failing_devices, _critical_paths(payload, currents)


class TimingMonteCarlo:
    """Monte Carlo timing-yield engine over a characterized timing graph.

    Construct through :meth:`from_chip` (correlated, geometry-backed — the
    paper's track sharing drives both yields from one sampling pass) or
    :meth:`from_graph` (independent per-node counts, for ingested graphs
    without placement information).  Both modes share the NLDM nominal
    characterization, the spawn-keyed chunked execution and the scalar STA
    oracle.
    """

    def __init__(
        self,
        graph: TimingGraph,
        payload,
        worker,
        per_trial_elements: int,
        nominal_delays_ps: np.ndarray,
    ) -> None:
        self.graph = graph
        self._payload = payload
        self._worker = worker
        self._per_trial_elements = max(1, int(per_trial_elements))
        self._nominal_delays_ps = np.asarray(nominal_delays_ps, dtype=float)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def _delay_model_for(
        chip: ChipMonteCarlo,
        current_model: Optional[CNTCurrentModel],
        capacitance_model: Optional[GateCapacitanceModel],
        diameter_mean_nm: float,
        diameter_std_nm: float,
    ) -> GateDelayModel:
        """The NLDM characterization model implied by a chip simulator."""
        return GateDelayModel(
            count_model=PoissonCountModel(chip.pitch.mean_nm),
            type_model=chip.type_model,
            current_model=current_model,
            capacitance_model=capacitance_model,
            diameter_mean_nm=diameter_mean_nm,
            diameter_std_nm=diameter_std_nm,
        )

    @staticmethod
    def _nominal_scale(
        graph: TimingGraph,
        delay_model: GateDelayModel,
        input_slew_ps: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node ``(nominal_delay_ps, delay × current scale)`` vectors."""
        nominal_ps = nominal_node_delays(
            graph, delay_model, input_slew_ps=input_slew_ps
        )
        widths = graph.drive_widths_nm()
        per_tube = delay_model.current_model.semiconducting_on_current_ua(
            delay_model.diameter_mean_nm
        )
        distinct, inverse = np.unique(widths, return_inverse=True)
        mean_working = np.array(
            [delay_model.count_model.mean_count(float(w)) for w in distinct]
        )[inverse] * delay_model.type_model.per_cnt_success_probability
        nominal_current = mean_working * per_tube
        return nominal_ps, nominal_ps * nominal_current

    @classmethod
    def from_chip(
        cls,
        chip: ChipMonteCarlo,
        timing: Optional["DerivedTiming"] = None,
        seed: int = 2010,
        current_model: Optional[CNTCurrentModel] = None,
        capacitance_model: Optional[GateCapacitanceModel] = None,
        diameter_mean_nm: float = 1.5,
        diameter_std_nm: float = 0.2,
        input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
    ) -> "TimingMonteCarlo":
        """Correlated-mode engine over a placed design's track geometry.

        Parameters
        ----------
        chip:
            The functional chip simulator whose geometry (and sampling
            kernel) is shared.
        timing:
            A pre-derived :class:`~repro.timing.ingest.DerivedTiming`;
            derived from ``chip`` with ``seed`` when omitted.
        seed:
            Graph-derivation seed (ignored when ``timing`` is given).
        current_model, capacitance_model:
            Drive-current and load models (defaults when omitted).
        diameter_mean_nm, diameter_std_nm:
            Per-tube diameter statistics of the Monte Carlo.
        input_slew_ps:
            Shared input slew at which the NLDM tables are read.
        """
        from repro.timing.ingest import DerivedTiming, derive_timing_graph

        if timing is None:
            timing = derive_timing_graph(
                chip, seed=seed, capacitance_model=capacitance_model
            )
        if not isinstance(timing, DerivedTiming):
            raise TypeError("timing must be a DerivedTiming (see derive_timing_graph)")
        geometry = chip.chip_geometry()
        if timing.node_window.size and (
            timing.node_window.min() < 0
            or timing.node_window.max() >= geometry.window_lo.size
        ):
            raise ValueError("timing.node_window indexes outside the chip geometry")
        delay_model = cls._delay_model_for(
            chip, current_model, capacitance_model,
            diameter_mean_nm, diameter_std_nm,
        )
        nominal_ps, scale = cls._nominal_scale(
            timing.graph, delay_model, input_slew_ps
        )
        payload = _CorrelatedPayload(
            geometry=geometry,
            graph=timing.graph,
            node_window=timing.node_window,
            scale_ps_ua=scale,
            current_model=delay_model.current_model,
            diameter_mean_nm=diameter_mean_nm,
            diameter_std_nm=diameter_std_nm,
        )
        # Per trial: the chip's gap matrix plus the slot-current row that
        # rides through the window pass with it, and the per-node current,
        # delay and arrival matrices.
        est_slots = estimate_gap_count(_drawn_pitch(geometry), geometry.row_height_nm)
        per_trial = 2 * geometry.n_rows * est_slots + 3 * timing.graph.n_nodes
        return cls(
            timing.graph, payload, _simulate_timing_chunk, per_trial, nominal_ps
        )

    @classmethod
    def from_graph(
        cls,
        graph: TimingGraph,
        delay_model: GateDelayModel,
        input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
    ) -> "TimingMonteCarlo":
        """Independent-mode engine for an ingested graph (no geometry).

        Every node's tube count is drawn independently from the delay
        model's count model at the node's drive width; use
        :meth:`from_chip` when placement geometry is available — it is
        what carries the paper's correlation into the delays.
        """
        nominal_ps, scale = cls._nominal_scale(graph, delay_model, input_slew_ps)
        payload = _IndependentPayload(
            graph=graph,
            widths_nm=graph.drive_widths_nm(),
            count_model=delay_model.count_model,
            per_cnt_success=delay_model.type_model.per_cnt_success_probability,
            scale_ps_ua=scale,
            current_model=delay_model.current_model,
            diameter_mean_nm=delay_model.diameter_mean_nm,
            diameter_std_nm=delay_model.diameter_std_nm,
        )
        widths = graph.drive_widths_nm()
        mean_tubes = max(
            1.0,
            float(np.mean([delay_model.count_model.mean_count(float(w)) for w in widths])),
        )
        per_trial = int(graph.n_nodes * (1 + mean_tubes))
        return cls(graph, payload, _simulate_independent_chunk, per_trial, nominal_ps)

    # ------------------------------------------------------------------
    # Nominal reference
    # ------------------------------------------------------------------

    def nominal_critical_path_ps(self) -> float:
        """Critical-path delay with every node at its nominal delay."""
        arrivals = propagate_arrivals(self.graph, self._nominal_delays_ps)
        return float(critical_path_delays(self.graph, arrivals)[0])

    def default_t_clk_ps(self, factor: float = 1.2) -> float:
        """A clock period ``factor ×`` the nominal critical path."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return factor * self.nominal_critical_path_ps()

    # ------------------------------------------------------------------
    # Monte Carlo
    # ------------------------------------------------------------------

    def run(
        self,
        n_trials: int,
        rng: np.random.Generator,
        t_clk_ps: Optional[float] = None,
        oracle: bool = False,
        execution: Execution = Execution(),
    ) -> TimingYieldResult:
        """Run ``n_trials`` joint functional/timing fabrications.

        Parameters
        ----------
        n_trials:
            Number of whole-chip trials, in chunks bounded by the engine's
            element budget (:func:`~repro.montecarlo.engine.default_trial_chunk`).
        rng:
            Root generator; each fixed-size trial chunk consumes its own
            spawned stream, so results are bitwise invariant to
            ``execution``.
        t_clk_ps:
            Clock period the parametric yield is judged against; defaults
            to :meth:`default_t_clk_ps` (1.2 × the nominal critical path).
        oracle:
            Use the per-trial scalar STA walk instead of the batched
            levelized sweep — same sampled delays, bitwise-equal critical
            paths, for equivalence testing and benchmarking.
        execution:
            How the chunks run (:class:`~repro.resilience.supervise.Execution`).
        """
        if n_trials <= 0:
            raise ValueError("n_trials must be positive")
        if t_clk_ps is None:
            t_clk_ps = self.default_t_clk_ps()
        if t_clk_ps <= 0:
            raise ValueError("t_clk_ps must be positive")
        chunks = run_chunked(
            self._worker,
            replace(self._payload, scalar_oracle=bool(oracle)),
            n_trials,
            rng,
            default_trial_chunk(self._per_trial_elements, n_trials),
            execution,
            "timing",
        )
        failing_devices = np.concatenate([c[0] for c in chunks])
        crit = np.concatenate([c[1] for c in chunks]).astype(float)
        # Infinite critical paths (dead gates) are legitimate; NaN never is.
        check_finite(crit, "timing_mc.critical_path_ps", allow_inf=True)
        return TimingYieldResult(
            n_trials=int(n_trials),
            t_clk_ps=float(t_clk_ps),
            nominal_critical_path_ps=self.nominal_critical_path_ps(),
            critical_path_ps=crit,
            failing_devices=failing_devices,
        )
