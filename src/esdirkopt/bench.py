"""Benchmark harness: single solves, the N-sweep, and the low-tolerance
experiment, with CSV/JSON statistics emission.

Every run solves the paper's tracking experiment, fixed by the module
constants; a flat RunConfig (seed-free, deterministic) holds what a run
varies, and the run produces one RunStats row. The sweep solves every
(method, sens, N) combination; non-converged runs are recorded as rows,
never raised.
"""

import json
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, check_integer
from .integrator import NewtonSettings
from .model import QuadrupleTank
from .nlp import DecisionVector, OcpProblem
from .sensitivity import SensitivityMode
from .sqp import SqpSettings, solve_ocp
from .tableau import METHODS as TABLEAU_METHODS, make_tableau

METHODS = tuple(name.lower() for name in TABLEAU_METHODS)
SENS_MODES = tuple(mode.value for mode in SensitivityMode)
SWEEP_N = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
#: the RunConfig fields that a sweep sets at each grid point
SWEEP_FIELDS = ("method", "sens", "N")
#: the RunConfig values that the low-tolerance experiment fixes
LOW_TOL = {"Ts": 2.0, "N": 10, "tol_sqp": 1e-6, "tol_qp": 1e-10,
           "abs": 1e-10, "rel": 1e-10}

# the tracking experiment: the outputs switch setpoints at half the horizon
# under fixed weights, pump bounds, disturbance and previous input
QZ = np.diag([10.0, 10.0])
QDU = np.diag([0.1, 0.1])
U_MIN = np.zeros(2)
U_MAX = np.full(2, 500.0)
D = np.array([0.0, 0.0, 100.0, 100.0])
SETPOINT_FIRST = np.array([20.0, 30.0])
SETPOINT_SECOND = np.array([30.0, 20.0])
U_PREV = np.full(2, 300.0)
X0 = np.array([7602.7, 11404.0, 1000.0, 1000.0])


@dataclass
class SetpointSwitch:
    """Piecewise-constant setpoints switching from first to second at
    t_switch."""
    first: np.ndarray
    second: np.ndarray
    t_switch: float

    def __call__(self, t):
        """The (n_z,) setpoint at a time t, or one row per time for an
        array of times."""
        return np.where(np.asarray(t)[..., None] < self.t_switch,
                        self.first, self.second)


@dataclass
class RunConfig:
    """One benchmark run: what a run varies of the tracking experiment."""
    method: str = "esdirk12"
    sens: str = "iterated"
    N: int = 10
    Ts: float = 10.0
    Nc: int = 40
    x0: np.ndarray = field(default_factory=X0.copy)
    init_value: float = 300.0
    tol_sqp: float = SqpSettings.tol_sqp
    tol_qp: float = SqpSettings.tol_qp
    tol_step: float = SqpSettings.tol_step
    abs: float = NewtonSettings.abs
    rel: float = NewtonSettings.rel
    tau: float = NewtonSettings.tau

    def validate(self):
        """This config, once make_problem and sqp_settings have checked
        every field; a ConfigError names the first field that fails."""
        make_problem(self)
        sqp_settings(self)
        return self

    @property
    def mode(self):
        return SensitivityMode(self.sens)


#: the keys of a config file or mapping
CONFIG_KEYS = frozenset(f.name for f in fields(RunConfig))


@dataclass
class RunStats:
    """One result row of the benchmark tables."""
    method: str
    sens: str
    N: int
    converged: bool
    sqp_iters: int
    qp_iters: int
    kkt: float
    f_evals: int
    jac_x_evals: int
    jac_u_evals: int
    lu_factorizations: int
    wall_time: float

    def as_dict(self, include_walltime=True):
        out = asdict(self)
        if not include_walltime:
            del out["wall_time"]
        return out


#: deterministic report column order
COLUMNS = tuple(f.name for f in fields(RunStats))


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17e")
    return str(value)


def make_problem(config):
    """Build the OcpProblem of a RunConfig, with its own copies of the
    experiment's arrays. A ConfigError names the first bad field: method,
    sens and init_value are checked here, the others where they are used."""
    if config.method not in METHODS:
        raise ConfigError(f"method: {config.method!r} is not one of "
                          f"{'/'.join(METHODS)}")
    if config.sens not in SENS_MODES:
        raise ConfigError(f"sens: {config.sens!r} is not one of "
                          f"{'/'.join(SENS_MODES)}")
    if (isinstance(config.init_value, bool)
            or not isinstance(config.init_value, numbers.Real)
            or not np.isfinite(config.init_value)):
        raise ConfigError(f"init_value: expected a finite number, "
                          f"got {config.init_value!r}")
    problem = OcpProblem(
        model=QuadrupleTank(),
        x0=np.copy(config.x0),
        Ts=config.Ts, Nc=config.Nc, N=config.N,
        Qz=QZ.copy(), Qdu=QDU.copy(), u_min=U_MIN.copy(), u_max=U_MAX.copy(),
        u_prev=U_PREV.copy(), d=D.copy(), setpoint=None,
        tableau=make_tableau(config.method),
        mode=config.mode,
        newton=NewtonSettings(tau=config.tau, abs=config.abs,
                              rel=config.rel))
    # switch at half the horizon, once the problem has checked Ts and Nc
    problem.setpoint = SetpointSwitch(SETPOINT_FIRST.copy(),
                                      SETPOINT_SECOND.copy(),
                                      config.Ts * config.Nc / 2.0)
    return problem


def sqp_settings(config):
    return SqpSettings(tol_sqp=config.tol_sqp, tol_qp=config.tol_qp,
                       tol_step=config.tol_step)


def run_single(config, out_dir=None):
    """Solve one OCP; optionally write the trajectory CSV to out_dir."""
    problem = make_problem(config)
    w0 = DecisionVector.filled(config.init_value, problem.model.n_x,
                               problem.model.n_u, config.Nc)
    t0 = time.perf_counter()
    result = solve_ocp(problem, sqp_settings(config), w0)
    wall = time.perf_counter() - t0
    stats = RunStats(
        method=config.method, sens=config.sens, N=config.N,
        converged=result.converged,
        sqp_iters=result.sqp_iterations,
        qp_iters=result.qp_iterations_total,
        kkt=result.kkt,
        f_evals=result.counters.f_evals,
        jac_x_evals=result.counters.jac_x_evals,
        jac_u_evals=result.counters.jac_u_evals,
        lu_factorizations=result.counters.lu_factorizations,
        wall_time=wall)
    if out_dir is not None:
        _write_trajectory(config, problem, result.w_star, out_dir)
    return stats


def _write_trajectory(config, problem, w, out_dir):
    """Optimal (t, z1, z2, zbar1, zbar2, u1, u2) at the shooting nodes."""
    C = problem.model.output_matrix()
    os.makedirs(out_dir, exist_ok=True)
    name = f"trajectory_{config.method}_{config.sens}_N{config.N}.csv"
    path = os.path.join(out_dir, name)
    t = problem.Ts * np.arange(1, config.Nc + 1)
    rows = np.column_stack([t, w.X @ C.T, problem.setpoint(t), w.U])
    lines = ["t,z1,z2,zbar1,zbar2,u1,u2"]
    lines += [",".join(_fmt(float(v)) for v in row) for row in rows]
    _write_file(path, "\n".join(lines) + "\n")
    return path


def run_sweep(base_config, n_list=SWEEP_N, jobs=1, row_sink=None):
    """Solve every (method, sens, N) combination; failures become rows.

    Results are ordered by (method, sens, N) regardless of completion
    order. row_sink, when given, receives each RunStats in that order as
    soon as it is available (incremental writing).
    """
    if not n_list:
        raise ValueError("n_list must be nonempty")
    check_integer("jobs", jobs, 1)
    # int() keeps the rows' N a Python int, for the JSON report
    points = [replace(base_config, method=m, sens=s,
                      N=int(check_integer("N", n, 1)))
              for m in METHODS for s in SENS_MODES for n in n_list]
    for p in points:
        p.validate()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return _collect(pool.map(run_single, points), row_sink)
    return _collect((run_single(p) for p in points), row_sink)


def _collect(rows, row_sink):
    """List the rows of a lazy, ordered iterable, passing each to row_sink
    as soon as it is produced."""
    stats = []
    for s in rows:
        if row_sink is not None:
            row_sink(s)
        stats.append(s)
    return stats


def run_low_tol_experiment(base_config, jobs=1, row_sink=None):
    """Short control interval, tight tolerances, all method/sens pairs;
    row_sink as for run_sweep."""
    return run_sweep(replace(base_config, **LOW_TOL), n_list=(LOW_TOL["N"],),
                     jobs=jobs, row_sink=row_sink)


def stats_to_csv(stats, include_walltime=True):
    cols = COLUMNS if include_walltime else COLUMNS[:-1]
    lines = [",".join(cols)]
    for s in stats:
        row = s.as_dict(include_walltime)
        lines.append(",".join(_fmt(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def stats_to_json(stats, include_walltime=True):
    return json.dumps([s.as_dict(include_walltime) for s in stats],
                      indent=2) + "\n"


def stats_from_json(text):
    """RunStats rows of a JSON table; ValueError unless every field has
    its column's type and names a known method and sensitivity mode."""
    rows = json.loads(text)
    if not isinstance(rows, list) \
            or not all(isinstance(r, dict) for r in rows):
        raise ValueError("expected a list of row objects")
    stats = [RunStats(**{"wall_time": 0.0, **r}) for r in rows]
    for s in stats:
        for f in fields(RunStats):
            value = getattr(s, f.name)
            # a float column also takes an integer; bool is no integer
            if type(value) is not f.type \
                    and not (f.type is float and type(value) is int):
                raise ValueError(f"{f.name}: expected {f.type.__name__}, "
                                 f"got {value!r}")
        if s.method not in METHODS or s.sens not in SENS_MODES:
            raise ValueError(f"unknown method/sens {s.method!r}/{s.sens!r}")
    return stats


def _write_file(path, content):
    try:
        with open(path, "w") as fh:
            fh.write(content)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit_report(stats, out_dir, fmt="csv", include_walltime=True):
    """Write the stats table plus one per-method grouped file.

    Returns the list of written paths. An empty table is an error and
    writes nothing.
    """
    if not stats:
        raise ValueError("empty stats table")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    main = os.path.join(out_dir, f"stats.{fmt}")
    render = stats_to_csv if fmt == "csv" else stats_to_json
    _write_file(main, render(stats, include_walltime))
    paths.append(main)
    for method in sorted({s.method for s in stats}):
        group = [s for s in stats if s.method == method]
        path = os.path.join(out_dir, f"stats_{method}.{fmt}")
        _write_file(path, render(group, include_walltime))
        paths.append(path)
    return paths


def parse_config_file(path):
    """Flat key = value document; arrays in [a, b, ...] bracket syntax."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(text, path, lineno)
    return values


def _parse_value(text, path, lineno):
    if text.startswith("[") and text.endswith("]"):
        items = [t.strip() for t in text[1:-1].split(",") if t.strip()]
        try:
            return np.array([float(t) for t in items])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad array {text!r}")
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def config_from(values):
    """RunConfig from a plain mapping, validating field names."""
    for key in values:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config field {key!r}")
    return RunConfig(**values).validate()
