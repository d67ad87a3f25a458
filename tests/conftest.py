import numpy as np
import pytest
from hypothesis import settings

from gridcap.acopf import OpfProblem, Objective, SolverOptions
from gridcap.fixtures import load_fixture
from gridcap.model import pv_injection
from gridcap.study import run_four_case_study

# Property tests draw the same examples on every run and keep no example
# database, so the suite's outcome does not depend on earlier runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def two_bus():
    return load_fixture("two_bus")


@pytest.fixture(scope="session")
def five_bus():
    return load_fixture("five_bus")


@pytest.fixture(scope="session")
def microgrid9():
    return load_fixture("microgrid9")


@pytest.fixture(scope="session")
def study9(microgrid9):
    """One default four-case study on the bundled microgrid, shared."""
    net, demand = microgrid9
    return run_four_case_study(net, demand)


def hour_problem(net, demand, hour, objective=Objective.ECONOMIC, options=None, **kw):
    """OpfProblem for one fixture hour, PV (P and Q) folded into fixed
    injections as run_case does."""
    p_d = np.zeros(net.n_bus)
    q_d = np.zeros(net.n_bus)
    for j, b in enumerate(demand.bus_ids):
        p_d[net.bus_index(b)] = demand.p_mw[hour, j]
        q_d[net.bus_index(b)] = demand.q_mvar[hour, j]
    p_inj = np.zeros(net.n_bus)
    q_inj = np.zeros(net.n_bus)
    for pv in net.pv_units:
        i = net.bus_index(pv.bus)
        p_mw, q_mvar = pv_injection(pv, hour)
        p_inj[i] += p_mw
        q_inj[i] += q_mvar
    return OpfProblem(
        network=net,
        p_d=p_d,
        q_d=q_d,
        p_inj=p_inj,
        q_inj=q_inj,
        objective=objective,
        options=options or SolverOptions(),
        dt=demand.dt,
        **kw,
    )
