"""SHA-256 pins of the bytes ``POST /v1/query`` serves.

Each case drives :class:`~repro.service.app.YieldApp` in-process and
hashes the raw response body, so any change to how a query is parsed,
interpolated, mapped through Eq. 2.3 / 3.1 or encoded — down to the last
bit of one float — changes a digest.  The cases cover the in-grid path,
per-query device counts, a row-scenario surface, the exact off-grid
fallback, the ``deadline_s = 0`` clamp and the reference density used
when a request omits it.  Surfaces are closed-form sweeps, so no Monte
Carlo draw reaches them.
"""

import hashlib
import json

import pytest

from repro.serving.service import YieldService
from repro.service.app import YieldApp
from repro.surface.builder import SurfaceBuilder, SweepSpec
from repro.surface.grid import GridAxis

WIDTHS = [60.0, 97.5, 143.25, 178.0, 231.5, 299.0]
DENSITIES = [150.0, 212.5, 250.0, 301.75, 355.0, 400.0]
OFF_GRID_WIDTHS = [40.0, 120.0, 350.0, 178.0]
OFF_GRID_DENSITIES = [250.0, 450.0, 300.0, 120.0]

CASES = {
    "in_grid": dict(
        surface="device", width_nm=WIDTHS, cnt_density_per_um=DENSITIES,
        device_count=3.3e7,
    ),
    "per_query_device_count": dict(
        surface="device", width_nm=WIDTHS, cnt_density_per_um=DENSITIES,
        device_count=[1.0, 1e3, 1e5, 3.3e7, 1e8, 1e9],
    ),
    "row_scenario": dict(
        surface="uncorrelated", width_nm=WIDTHS,
        cnt_density_per_um=DENSITIES, device_count=3.3e7,
    ),
    "off_grid_exact": dict(
        surface="device", width_nm=OFF_GRID_WIDTHS,
        cnt_density_per_um=OFF_GRID_DENSITIES, device_count=3.3e7,
    ),
    "deadline_clamped": dict(
        surface="device", width_nm=OFF_GRID_WIDTHS,
        cnt_density_per_um=OFF_GRID_DENSITIES, device_count=3.3e7,
        deadline_s=0.0,
    ),
    "density_omitted": dict(
        surface="device", width_nm=WIDTHS, device_count=3.3e7,
    ),
}

DIGESTS = {
    "in_grid":
        "023a049e0301eee01dc0a56b06ad81bc2963a9c49421eb0ed16197d9e0d6ce9c",
    "per_query_device_count":
        "2d05c9e92dea97fb4c090ebdc19affa3c8fc760bb8be7cb0db0a796bb7400b23",
    "row_scenario":
        "017832471fe4572e9cba373d6dfd7449332a1c87804aa88ac6a42e8e84a42d17",
    "off_grid_exact":
        "3bcf04504545d4be23a27e8794e874aaea7941c03593fc081ed61f56e2f1b1c1",
    "deadline_clamped":
        "a445c014c01fff8d17f17ebfa9e63fd7eed32bd5eef32cb9ce2dd5cf37464031",
    "density_omitted":
        "84b76ece0164d3047404e0887eed94e10c944088fe2d07b6569b5d9f4ae12e61",
}


def _surface(scenario):
    spec = SweepSpec(
        scenario=scenario,
        width_axis=GridAxis.from_range("width_nm", 60.0, 300.0, 9),
        density_axis=GridAxis.from_range("cnt_density_per_um", 150.0, 400.0, 5),
        max_refinement_rounds=1,
    )
    return SurfaceBuilder(spec).build()


@pytest.fixture(scope="module")
def app():
    service = YieldService()
    keys = {
        scenario: service.register(_surface(scenario))
        for scenario in ("device", "uncorrelated")
    }
    application = YieldApp(service, refine_capacity=4, refine_workers=1)
    yield application, keys
    application.refinement.close()


def _post_query(application, payload):
    """One ``POST /v1/query`` through the ASGI callable; (status, raw body)."""
    sent = []

    async def receive():
        body = json.dumps(payload).encode("utf-8")
        return {"type": "http.request", "body": body, "more_body": False}

    async def send(message):
        sent.append(message)

    coroutine = application(
        {"type": "http", "method": "POST", "path": "/v1/query"}, receive, send
    )
    with pytest.raises(StopIteration):
        coroutine.send(None)
    return sent[0]["status"], sent[1]["body"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_response_bytes_are_pinned(app, name):
    application, keys = app
    payload = dict(CASES[name], surface=keys[CASES[name]["surface"]])
    status, raw = _post_query(application, payload)
    assert status == 200, raw
    assert hashlib.sha256(raw).hexdigest() == DIGESTS[name]
