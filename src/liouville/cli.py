"""Command-line front end: solve, scan, verify, oracle, app, plot.

Exit codes follow one contract everywhere: 0 on success, 2 when the outcome
is a nonexistence verdict (a condition of `potentials.certify` rules the
requested solution out), 1 on any other failure, including usage mistakes,
a root search that finds nothing, and a profile whose mass or Pokhozhaev
residual exceeds its bound in `verify`.  Commands let errors propagate and
`main` alone maps them to exit codes: a `NonexistenceError` from any
command exits 2.  Console numbers are rounded to 6 significant digits; files
always carry full double precision.

Potentials are given as one-line descriptors, e.g. ``gauss:gamma=1,alpha=2``
or ``table=weights.csv``.
"""

import csv
import math
from pathlib import Path

import click
import numpy as np

from .applications import (CSS, Onsager, SphericalOnsager,
                           onsager_temperature_scan, scan_rows_to_csv,
                           solve_app)
from .grids import make_grid
from .oracles import conformal_bubble, sharp_regularity_example
from .potentials import parse_potential
from .shooting import (NonexistenceError, ShootingError, mass_map,
                       solve_for_beta)
from .solution import NormalizedSolution
from .variational import EnergyUnboundedError, variational_solve
from .verify import MASS_BOUND, POKHOZHAEV_BOUND, check_identities

__all__ = ["cli", "main", "plot_svg", "SCAN_HEADER"]

SCAN_HEADER = ["s", "beta", "beta_prime"]


def _fmt(x):
    """Console rendering: 6 significant digits."""
    return f"{float(x):.6g}"


def _numbers(text, option, count=None):
    """The comma-separated numbers given to ``--option``: ``count`` of them
    when it is set, else at least one."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values or count not in (None, len(values)):
        want = ("a comma list of numbers" if count is None
                else f"{count} comma-separated numbers")
        raise click.UsageError(f"--{option} wants {want}, got {text!r}")
    return values


def _save(sol, out_path):
    """Write the solution's .json and .csv files and say so."""
    jpath = sol.save(out_path)
    click.echo(f"wrote {jpath} + {jpath.with_suffix('.csv').name}")


def _potential_or_usage(spec):
    try:
        return parse_potential(spec)
    except ValueError as err:
        raise click.UsageError(str(err))


def _checked(sol):
    """check_identities, refusing a profile whose mass or Pokhozhaev
    residual exceeds its bound."""
    report = check_identities(sol)
    for name, bound in (("mass_residual", MASS_BOUND),
                        ("pokhozhaev_residual", POKHOZHAEV_BOUND)):
        if not getattr(report, name) <= bound:
            raise click.ClickException(f"{name} = {getattr(report, name):.3g}"
                                       f" exceeds its bound {bound:g}")
    return report


def _summary(sol, report=None):
    bits = [f"beta={_fmt(sol.beta)}", f"n={_fmt(sol.n)}",
            f"psi0={_fmt(sol.psi[0])}", f"r_max={_fmt(sol.r_max)}"]
    if "s_star" in sol.meta:
        bits.append(f"s_star={_fmt(sol.meta['s_star'])}")
    if report is not None:
        bits += [f"mass_residual={_fmt(report.mass_residual)}",
                 f"flux_residual={_fmt(report.flux_residual)}"]
    if sol.meta.get("flags"):
        bits.append("flags=" + ",".join(sol.meta["flags"]))
    return "  ".join(bits)


@click.group()
def cli():
    """Radial Liouville solver: -Δψ = 4πβ Ve^ψ on the plane, unit mass."""


# ---------------------------------------------------------------------------
# solve


@cli.command()
@click.option("--method", type=click.Choice(["shooting", "variational"]),
              default="shooting", show_default=True)
@click.option("--beta", type=float, required=True,
              help="Coupling β (nonzero; negative allowed with shooting).")
@click.option("--n", "n_exp", type=float, default=0.0, show_default=True,
              help="Extra radial weight exponent n in rⁿV.")
@click.option("--potential", "potential_spec", default="const:c=1",
              show_default=True, help="Descriptor name:key=val,...")
@click.option("--bracket", default=None,
              help="Initial ψ(0) bracket for the root search, shooting "
                   "only.  [default: -4,4]")
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Output basename; writes .json and .csv.")
def solve(method, beta, n_exp, potential_spec, bracket, out_path):
    """Produce a unit-mass solution and its identity report; exit 2 if no
    solution can exist."""
    V = _potential_or_usage(potential_spec)
    if method == "shooting":
        ends = _numbers("-4,4" if bracket is None else bracket, "bracket", 2)
        sol = solve_for_beta(V, n_exp, beta, ends)
    else:
        if bracket is not None:
            raise click.UsageError("the variational backend takes no --bracket")
        sol, _ = variational_solve(V, n_exp, beta)
    click.echo(_summary(sol, _checked(sol)))
    if out_path:
        _save(sol, out_path)


# ---------------------------------------------------------------------------
# scan


@cli.command()
@click.option("--n", "n_exp", type=float, default=0.0, show_default=True)
@click.option("--potential", "potential_spec", default="const:c=1",
              show_default=True)
@click.option("--s-range", default="-5,25", show_default=True,
              help="ψ(0) sweep endpoints lo,hi.")
@click.option("--points", type=int, default=31, show_default=True)
@click.option("--s-list", default=None,
              help="Explicit comma-separated ψ(0) values (overrides range).")
@click.option("--sigma", type=click.Choice(["1", "-1"]), default="1",
              show_default=True, help="Coupling sign branch.")
@click.option("--out", "out_path", required=True, type=click.Path())
def scan(n_exp, potential_spec, s_range, points, s_list, sigma, out_path):
    """Tabulate the mass map s ↦ (β(s), β′(s)) as CSV."""
    V = _potential_or_usage(potential_spec)
    if s_list is not None:
        values = _numbers(s_list, "s-list")
    else:
        lo, hi = _numbers(s_range, "s-range", 2)
        if points < 2:
            raise click.UsageError("--points must be at least 2")
        values = np.linspace(lo, hi, points).tolist()
    entries = mass_map(V, n_exp, values, sigma=int(sigma))
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCAN_HEADER)
        for e in entries:
            writer.writerow([repr(float(e.s)), repr(float(e.beta)),
                             repr(float(e.beta_prime))])
    good = [e.beta for e in entries if e.error is None]
    for e in entries:
        if e.error is not None:
            click.echo(f"s={_fmt(e.s)}: {e.error}", err=True)
    if good:
        click.echo(f"wrote {out_path} ({len(entries)} rows, "
                   f"beta {_fmt(min(good))}..{_fmt(max(good))})")
    else:
        click.echo(f"wrote {out_path} ({len(entries)} rows, all failed)")


# ---------------------------------------------------------------------------
# verify / oracle


@cli.command()
@click.argument("solution_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--potential", "potential_spec", default=None,
              help="Override when the stored descriptor is missing.")
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Also write the report JSON here.")
def verify(solution_file, potential_spec, out_path):
    """Recompute the defining identities of a stored solution."""
    sol = NormalizedSolution.load(solution_file)
    V = _potential_or_usage(potential_spec) if potential_spec else None
    click.echo(check_identities(sol, V).to_json(out_path))
    if out_path:
        click.echo(f"wrote {out_path}")


@cli.command()
@click.option("--kind", type=click.Choice(["bubble", "sharp"]),
              required=True, help="Closed-form family to emit.")
@click.option("--lam", type=float, default=1.0, show_default=True,
              help="Bubble scale λ.")
@click.option("--n-fam", type=float, default=1.0, show_default=True,
              help="Bubble family exponent (β = 2·n_fam).")
@click.option("--alpha", type=float, default=math.exp(-1.0),
              help="Sharp-example cutoff in (0,1).  [default: 1/e]")
@click.option("--radius", type=float, default=40.0, show_default=True)
@click.option("--nodes", type=int, default=4096, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def oracle(kind, lam, n_fam, alpha, radius, nodes, out_path):
    """Write an exact reference solution for solver cross-checks."""
    grid = make_grid(radius, nodes)
    if kind == "bubble":
        sol = conformal_bubble(n_fam, lam, grid)
    else:
        _, sol = sharp_regularity_example(alpha, grid)
    _save(sol, out_path)
    click.echo(_summary(sol))


# ---------------------------------------------------------------------------
# applications


@cli.command()
@click.argument("kind", type=click.Choice(["onsager", "sphere", "css"]))
@click.option("--n", "n_exp", type=float, default=0.0, show_default=True)
@click.option("--gamma", type=float, default=None,
              help="Onsager confinement / sphere conformal weight.")
@click.option("--alpha-exp", type=float, default=2.0, show_default=True,
              help="Onsager confinement exponent.")
@click.option("--beta-stat", type=float, default=None,
              help="Onsager statistical temperature (β_eq = −β_stat/4π).")
@click.option("--l", "l_exp", type=float, default=None,
              help="Sphere projection exponent.")
@click.option("--beta", type=float, default=None,
              help="Coupling for sphere/css.")
@click.option("--n-int", type=int, default=None, help="CSS winding number.")
@click.option("--B", "b_field", type=float, default=1.0, show_default=True,
              help="CSS magnetic field strength.")
@click.option("--scan", "scan_list", default=None,
              help="Onsager only: comma list of β_stat values → CSV table.")
@click.option("--out", "out_path", default=None, type=click.Path())
def app(kind, n_exp, gamma, alpha_exp, beta_stat, l_exp, beta, n_int, b_field,
        scan_list, out_path):
    """Solve a physics preset (or sweep Onsager temperatures)."""
    if scan_list is not None:
        if kind != "onsager":
            raise click.UsageError("--scan only applies to the onsager kind")
        if out_path is None:
            raise click.UsageError("--scan needs --out for the CSV table")
        rows = onsager_temperature_scan(n_exp, gamma if gamma is not None
                                        else 1.0, alpha_exp,
                                        _numbers(scan_list, "scan"))
        scan_rows_to_csv(rows, out_path)
        for row in rows:
            click.echo(f"beta_stat={_fmt(row.param)} -> {row.verdict}")
        click.echo(f"wrote {out_path} ({len(rows)} rows)")
        return
    if kind == "onsager":
        if beta_stat is None:
            raise click.UsageError("onsager needs --beta-stat (or --scan)")
        spec = Onsager(n=n_exp, gamma=gamma if gamma is not None else 1.0,
                       alpha_exp=alpha_exp, beta_stat=beta_stat)
    elif kind == "sphere":
        if l_exp is None or beta is None:
            raise click.UsageError("sphere needs --l and --beta")
        spec = SphericalOnsager(n=n_exp, l=l_exp,
                                gamma=gamma if gamma is not None else 0.0,
                                beta=beta)
    else:
        if n_int is None or beta is None:
            raise click.UsageError("css needs --n-int and --beta")
        spec = CSS(n_int=n_int, beta=beta, B=b_field)
    sol = solve_app(spec)
    click.echo(_summary(sol, _checked(sol)))
    if out_path:
        _save(sol, out_path)


# ---------------------------------------------------------------------------
# plot


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 64, 18, 18, 46


def _floatable(text):
    try:
        float(text)
        return True
    except (TypeError, ValueError):
        return False


def plot_svg(csv_path, out_path, columns=None, log_x=False, x_column=None):
    """Render CSV columns as a line chart; identical input → identical bytes.

    The SVG is assembled from fixed-precision coordinates with no timestamps
    or random ids, so plots diff cleanly across runs.
    """
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames
        if not fields:
            raise ValueError(f"{csv_path}: no rows")
        rows = [row for row in reader
                if any((v or "").strip() for v in row.values())]
    if not rows:
        raise ValueError(f"{csv_path}: no rows")
    x_column = x_column or fields[0]
    if columns:
        wanted = list(columns)
    else:
        wanted = [f for f in fields
                  if f != x_column and _floatable(rows[0][f])]
        if not wanted:
            raise ValueError(f"{csv_path}: no numeric columns to plot")
    for name in (x_column, *wanted):
        if name not in fields:
            raise ValueError(f"{csv_path}: missing column {name!r} "
                             f"(has {', '.join(fields)})")

    def column(name):
        try:
            return [float(row[name]) for row in rows]
        except (TypeError, ValueError):
            raise ValueError(f"{csv_path}: column {name!r} is not numeric")

    xs = column(x_column)
    series = [(name, column(name)) for name in wanted]
    if log_x:
        keep = [i for i, x in enumerate(xs) if x > 0.0]
        if not keep:
            raise ValueError("log-x needs positive x values")
        xs = [math.log10(xs[i]) for i in keep]
        series = [(name, [ys[i] for i in keep]) for name, ys in series]

    finite_y = [y for _, ys in series for y in ys if math.isfinite(y)]
    if not finite_y:
        raise ValueError("nothing finite to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite_y), max(finite_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
           f'height="{_H - _MT - _MB}" fill="none" stroke="#222" '
           'stroke-width="1"/>']
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4.0
        yv = y_lo + (y_hi - y_lo) * i / 4.0
        xp, yp = px(xv), py(yv)
        out.append(f'<line x1="{xp:.2f}" y1="{_H - _MB}" x2="{xp:.2f}" '
                   f'y2="{_H - _MB + 5}" stroke="#222"/>')
        label = _fmt(10.0 ** xv) if log_x else _fmt(xv)
        out.append(f'<text x="{xp:.2f}" y="{_H - _MB + 18}" '
                   f'font-size="11" text-anchor="middle" '
                   f'font-family="monospace">{label}</text>')
        out.append(f'<line x1="{_ML - 5}" y1="{yp:.2f}" x2="{_ML}" '
                   f'y2="{yp:.2f}" stroke="#222"/>')
        out.append(f'<text x="{_ML - 8}" y="{yp + 4:.2f}" font-size="11" '
                   f'text-anchor="end" font-family="monospace">'
                   f'{_fmt(yv)}</text>')
    for k, (name, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}"
                       for x, y in zip(xs, ys) if math.isfinite(y))
        out.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * k}" '
                   f'font-size="12" text-anchor="end" fill="{color}" '
                   f'font-family="monospace">{name}</text>')
    x_label = f"log10({x_column})" if log_x else x_column
    out.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 8}" '
               f'font-size="12" text-anchor="middle" '
               f'font-family="monospace">{x_label}</text>')
    out.append("</svg>")
    text = "\n".join(out) + "\n"
    out_file = Path(out_path)
    with open(out_file, "w", newline="\n") as fh:
        fh.write(text)
    return out_file


@cli.command("plot")
@click.argument("csv_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--x", "x_col", default=None,
              help="X column name.  [default: first column]")
@click.option("--y", "y_cols", default=None,
              help="Comma list of Y columns.  [default: all numeric]")
@click.option("--log-x", is_flag=True, help="Logarithmic x axis.")
@click.option("--out", "out_path", required=True, type=click.Path())
def plot_cmd(csv_file, x_col, y_cols, log_x, out_path):
    """Draw CSV columns as a deterministic SVG line chart."""
    columns = ([c.strip() for c in y_cols.split(",") if c.strip()]
               if y_cols else None)
    try:
        written = plot_svg(csv_file, out_path, columns, log_x=log_x,
                           x_column=x_col)
    except ValueError as err:
        raise click.ClickException(str(err))
    click.echo(f"wrote {written}")


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    """Run the CLI with the documented exit-code contract."""
    try:
        cli.main(args=argv, prog_name="liouville", standalone_mode=False)
    except click.exceptions.Exit as err:          # --help and friends
        return int(err.exit_code)
    except click.UsageError as err:
        err.show()
        return 1
    except click.ClickException as err:
        err.show()
        return err.exit_code
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except NonexistenceError as err:              # the one exit-2 path
        click.echo(f"Error: {err}", err=True)
        return 2
    except (ShootingError, EnergyUnboundedError, ValueError, OSError) as err:
        click.echo(f"error: {err}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
