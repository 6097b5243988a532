"""Online scheduling service over the unified execution core.

The offline->online step of the reproduction: instead of a one-shot batch,
DAG scheduling requests *arrive over time* (a seeded Poisson-style trace,
:mod:`repro.serve.arrivals`), a load-adaptive policy picks a pipeline spec
per request (:mod:`repro.serve.policy`), and a virtual-time service loop
(:mod:`repro.serve.service`) answers repeats from the content-hash cache
while the distinct jobs execute through one :class:`repro.exec.Session`.
SLO reporting and the ``repro serve bench`` load harness live in
:mod:`repro.serve.service` / :mod:`repro.serve.bench`.

Everything is replayable bit-identically per seed — across machines and
across session worker counts — because the timeline is virtual and the
real execution is the session's plan-order-deterministic batch.

Importing this package loads no numpy: the arrival draw, the event loop's
block kernel, the SLO summary and the trace digest import it when they
first run.
"""

from repro.serve.arrivals import (
    ArrivalConfig,
    RequestTrace,
    ServeRequest,
    generate_requests,
    request_pool,
)
from repro.serve.bench import run_serve_bench
from repro.serve.policy import AdaptivePolicy, LearnedPolicy, PolicyConfig
from repro.serve.service import (
    RequestRecord,
    RequestRecords,
    ScheduleService,
    ServiceConfig,
    ServiceReport,
    spec_weight,
)

__all__ = [
    "AdaptivePolicy",
    "ArrivalConfig",
    "LearnedPolicy",
    "PolicyConfig",
    "RequestRecord",
    "RequestRecords",
    "RequestTrace",
    "ScheduleService",
    "ServeRequest",
    "ServiceConfig",
    "ServiceReport",
    "generate_requests",
    "request_pool",
    "run_serve_bench",
    "spec_weight",
]
