"""Baseline table from a saved benchmark file, without re-running anything."""

import statistics

TOP_LAYERS = 4


def _shares(record):
    """(layer, share of the traced wall) of every self-time metric, largest first."""
    walls = record["samples"]["wall_raw_s"]
    wall = sum(walls) / len(walls)
    metrics = record["result"]["metrics"]
    out = []
    for name, m in metrics.items():
        if name.endswith(".self_s") and m["value"] > 0.0:
            out.append((name[: -len(".self_s")], m["value"] / wall))
    out.append(("cli.other", metrics["cli.other_s"]["value"] / wall))
    return sorted(out, key=lambda item: -item[1]), wall


def table(records):
    """Lines of the baseline table: per-study end-to-end figures and top layers."""
    lines = [
        "| study | wall_raw_s (median, rounds) | wall_s | setup_s | peak_rss_mb "
        "| failed_share | top layers by self time (traced) |",
        "|---|---|---|---|---|---|---|",
    ]
    checks = []
    first = next(iter(records.values()))["trace0"]["manifest"]
    for name, pair in records.items():
        plain, traced = pair["trace0"], pair["trace1"]
        m = plain["result"]["metrics"]
        res = plain["result"]
        shares, wall = _shares(traced)
        top = ", ".join(f"{layer} {100 * s:.0f}%" for layer, s in shares[:TOP_LAYERS])
        walls = plain["samples"]["wall_raw_s"]
        lines.append(
            f"| `{name}` | {statistics.median(walls):.3f} s ({len(walls)}) "
            f"| {m['wall_s']['value']:.3f} s "
            f"| {m['setup_s']['value']:.3f} s | {m['peak_rss_mb']['value']:.0f} MB "
            f"| {res['failed'] / res['attempted']:.3g} | {top} |"
        )
        lm = traced["result"]["metrics"]
        checks.append(
            f"{name}: coverage {lm['trace.coverage']['value']:.3f}, "
            f"overhead {100 * lm['trace.overhead']['value']:.2f}%, "
            f"operator (apply span + solve_rhs self) "
            f"{100 * (lm['stokes.apply.span_s']['value'] + lm['stokes.solve_rhs.self_s']['value']) / wall:.0f}%, "
            f"build + coercivity "
            f"{100 * (lm['stokes.build.self_s']['value'] + lm['viscosity.coercivity_estimate.self_s']['value']) / wall:.0f}%, "
            f"write_snapshot calls {lm['fields.write_snapshot.calls']['value']:.0f}, "
            f"Picard iterations {lm['marching.picard_iters']['value']:.0f}"
        )
    lines.append("")
    lines.append(
        f"Conditions: {first['nproc']} cores, Python {first['python']}, numpy {first['numpy']}, "
        f"scipy {first['scipy']}, {first['blas']['name']} {first['blas']['version']}, "
        f"commit {first['git_commit']}, seed {first['seed']}, {first['seconds']:g} s per run."
    )
    lines += checks
    return lines
