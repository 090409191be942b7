"""Render EXPERIMENTS.md's Tables 2–5 from ``results.csv``.

This is the one place where the paper's values meet the measurements of
``jobs/sweep.py``. Each rendered block replaces the text between its
``<!-- BEGIN name -->`` and ``<!-- END name -->`` markers in
EXPERIMENTS.md, and a test checks that the committed file equals the
rendering of the committed CSV.

Run: ``python jobs/assemble_experiments.py`` (after ``python jobs/sweep.py``).
"""
from __future__ import annotations

import re
from pathlib import Path

import pandas as pd

from repro.graphgen.catalog import PAPER_GRAPHS, SOCIAL_GRAPHS, WEB_GRAPHS

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results.csv"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"

#: The paper's Table 3: graph -> {k: (CLUGP, 2PS-L, HDRF, S5P)}.
PAPER_TABLE3 = {
    "OK": {64: (14.288, 15.112, 17.860, 11.614), 128: (17.522, 18.915, 22.617, 15.391), 256: (20.636, 23.200, 27.023, 19.055)},
    "TW": {64: (8.808, 10.642, 9.520, 7.583), 128: (10.817, 13.074, 11.789, 9.068), 256: (11.861, 15.577, 14.408, 10.526)},
    "FR": {64: (10.311, 11.241, 11.324, 7.870), 128: (13.432, 14.359, 14.757, 11.244), 256: (17.011, 17.457, 18.122, 14.995)},
    "LJ": {64: (4.913, 5.036, 6.778, 4.549), 128: (5.471, 5.593, 7.763, 5.112), 256: (5.945, 6.045, 8.545, 5.636)},
    "IT": {64: (1.908, 3.680, 12.538, 1.273), 128: (1.973, 4.110, 14.500, 1.232), 256: (2.041, 4.420, 16.469, 1.210)},
    "UK7": {64: (1.754, 3.338, 14.190, 1.265), 128: (1.876, 3.760, 16.700, 1.213), 256: (1.839, 4.077, 19.181, 1.196)},
    "IN": {64: (1.415, 1.895, 6.884, 1.229), 128: (1.542, 2.241, 8.028, 1.207), 256: (1.621, 2.887, 8.890, 1.225)},
    "SK": {64: (2.299, 4.001, 16.561, 1.337), 128: (2.584, 5.466, 19.413, 1.310), 256: (2.566, 7.029, 21.766, 1.293)},
    "UK2": {64: (1.561, 2.644, 9.414, 1.371), 128: (1.698, 2.752, 10.673, 1.227), 256: (1.692, 2.921, 11.791, 1.238)},
    "AR": {64: (2.015, 3.409, 12.599, 1.131), 128: (1.929, 3.803, 14.768, 1.213), 256: (2.005, 4.119, 16.762, 1.233)},
    "WB": {64: (1.446, 1.829, 5.951, 1.296), 128: (1.493, 1.836, 6.646, 1.178), 256: (1.485, 1.822, 7.283, 1.188)},
}
TABLE3_METHODS = ("CLUGP", "2PS-L", "HDRF", "S5P")

#: The paper's Table 4 (k=32): method -> graph -> (RF, time_s, mem_GB);
#: None = did not finish (">24h").
PAPER_TABLE4 = {
    "RMGP": {"OK": (16.7, 535, 4.01), "TW": None, "FR": (10.9, 4553, 70.2), "LJ": (5.4, 65, 2.08), "WB": (4.2, 1871, 61.1), "G6": None},
    "MDSGP": {"OK": (9.9, 324, 8.95), "TW": (6.8, 5189, 99.08), "FR": (7.6, 4934, 144.96), "LJ": (4.5, 184, 3.83), "WB": (6.2, 6320, 119.45), "G6": (4.9, 11915, 231.87)},
    "CVSP": {"OK": (17.4, 141, 2.25), "TW": None, "FR": (11.2, 2078, 80.69), "LJ": (5.7, 32, 2.25), "WB": (4.8, 822, 79.46), "G6": None},
    "CLUGP": {"OK": (10.7, 91, 1.02), "TW": (7.6, 1333, 11.65), "FR": (7.2, 3045, 14.12), "LJ": (4.2, 111, 1.11), "WB": (1.5, 1101, 25.11), "G6": (4.8, 4847, 18.01)},
    "S5P": {"OK": (8.5, 60, 0.38), "TW": (6.0, 808, 4.64), "FR": (7.0, 1466, 7.22), "LJ": (3.9, 28, 0.48), "WB": (1.1, 696, 12.9), "G6": (4.4, 2620, 8.06)},
}

#: The paper's Table 5 (k=4): graph -> (Opt, {method: (RF, α)}).
PAPER_TABLE5 = {
    "G_alpha": (1.43, {"CLUGP": (1.86, 1.30), "2PS-L": (2.00, 1.41), "S5P": (1.71, 1.20)}),
    "G_beta": (1.63, {"CLUGP": (2.38, 1.46), "2PS-L": (2.38, 1.46), "S5P": (2.12, 1.30)}),
    "G_gamma": (1.30, {"CLUGP": (1.90, 1.46), "2PS-L": (2.00, 1.54), "S5P": (1.80, 1.38)}),
}
TABLE5_METHODS = ("CLUGP", "2PS-L", "S5P")
GREEK = {"alpha": "α", "beta": "β", "gamma": "γ"}


def _fmt(x: float, spec: str) -> str:
    return "DNF" if pd.isna(x) else format(x, spec)


def _count(x: int) -> str:
    """An integer with a space between thousands, as ``9 208``."""
    return f"{int(x):,}".replace(",", " ")


def cells(df: pd.DataFrame, table: str) -> pd.DataFrame:
    """The partition cells of ``table``: its rows with a method."""
    return df[(df.table == table) & df.method.notna()].astype({"k": int})


def loaded(df: pd.DataFrame, table: str) -> pd.DataFrame:
    """The skewness row of every graph ``table`` loaded."""
    return df[(df.table == table) & df.method.isna()]


def table2_markdown(df: pd.DataFrame) -> str:
    """Table 2: each stand-in's size and skewness, with the paper's ρ."""
    lines = [
        "| Graph | type | \\|V\\| | \\|E\\| | ρ (paper) | ρ1 (paper) | ρ2 (paper) | ρ3 |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for r in loaded(df, "table2").itertuples():
        spec = PAPER_GRAPHS.get(r.graph, {"type": "synthetic"})
        rhos = [
            f"{x:.2f}" + (f" ({spec[key]:.2f})" if key in spec else "")
            for x, key in ((r.rho, "rho"), (r.rho1, "rho1"), (r.rho2, "rho2"))
        ]
        lines.append(
            f"| {r.graph} | {spec['type']} | {_count(r.n_vertices)} | {_count(r.n_edges)} | "
            + " | ".join(rhos) + f" | {_count(r.rho3)} |"
        )
    return "\n".join(lines)


def table3_markdown(df: pd.DataFrame) -> str:
    """Table 3 with S5P's exact-Θ column, the web win counts and the times."""
    t3 = cells(df, "table3")
    lines = [
        "| Graph | k | CLUGP paper/ours | 2PS-L paper/ours | HDRF paper/ours | S5P paper/ours | S5P exact Θ | S5P rank (paper/ours) |",
        "|---|---|---|---|---|---|---|---|",
    ]
    cms_wins, exact_wins, exact_gain, social_first = 0, [], [], []
    n_web = 0
    for (graph, k), cell in t3.groupby(["graph", "k"], sort=False):
        ours = {(r.method, r.variant): r.rf for r in cell.itertuples()}
        paper = dict(zip(TABLE3_METHODS, PAPER_TABLE3[graph][k]))
        pairs = [f"{paper[m]:.3f} / {ours[m, 'default']:.3f}" for m in TABLE3_METHODS]
        rank_p = sorted(paper, key=paper.get).index("S5P") + 1
        rank_o = sorted(TABLE3_METHODS, key=lambda m: ours[m, "default"]).index("S5P") + 1
        lines.append(
            f"| {graph} | {k} | " + " | ".join(pairs)
            + f" | {ours['S5P', 'exact']:.3f} | {rank_p} / {rank_o} |"
        )
        exact_gain.append(ours["S5P", "default"] - ours["S5P", "exact"])
        if graph in SOCIAL_GRAPHS:
            social_first.append(rank_o == 1)
        if graph in WEB_GRAPHS:
            n_web += 1
            cms_wins += ours["S5P", "default"] < ours["CLUGP", "default"]
            if ours["S5P", "exact"] < ours["CLUGP", "default"]:
                exact_wins.append(f"{graph} k={k}")
    lowered = [g for g in exact_gain if g > 0]
    lines += [
        "",
        f"On the {n_web} web cells, S5P has a lower RF than CLUGP in "
        f"{cms_wins} with the CMS (its default) and in {len(exact_wins)} "
        f"with exact Θ (`use_cms=False`): {', '.join(exact_wins) or 'none'}. "
        f"The default S5P has the lowest RF of the four in {sum(social_first)} "
        f"of the {len(social_first)} social cells. Exact Θ lowers S5P's RF in "
        f"{len(lowered)} of the {len(exact_gain)} cells"
        + (f", by {min(lowered):.3f}–{max(lowered):.3f}." if lowered else "."),
        "",
        f"Median `time_s` over the {t3.graph.nunique()} graphs (s; each cell's "
        "time is the median of at least 3 plain calls that add up to 2 s or more):",
        "",
        "| Method | " + " | ".join(f"k={k}" for k in t3.k.unique()) + " |",
        "|---|" + "---|" * t3.k.nunique(),
    ]
    med = t3.groupby(["method", "variant", "k"], sort=False).time_s.median()
    for method, variant in t3[["method", "variant"]].drop_duplicates().itertuples(index=False):
        name = method if variant == "default" else f"{method} ({variant})"
        lines.append(
            f"| {name} | " + " | ".join(f"{med[method, variant, k]:.2f}" for k in t3.k.unique()) + " |"
        )
    return "\n".join(lines)


def table4_markdown(df: pd.DataFrame) -> str:
    """Table 4: RF, time and memory against the paper's, with balance."""
    lines = [
        "| Graph | Method | RF paper/ours | Time s paper/ours | Mem paper(GB)/ours(MB) | balance |",
        "|---|---|---|---|---|---|",
    ]
    t4 = cells(df, "table4")
    for r in t4.itertuples():
        p = PAPER_TABLE4[r.method][r.graph] or (float("nan"),) * 3
        lines.append(
            f"| {r.graph} | {r.method} | {_fmt(p[0], '.1f')} / {_fmt(r.rf, '.2f')} "
            f"| {_fmt(p[1], '.0f')} / {_fmt(r.time_s, '.2f')} "
            f"| {_fmt(p[2], '.1f')} / {_fmt(r.mem_mb, '.1f')} | {_fmt(r.balance, '.2f')} |"
        )
    lowest = fastest = lighter = 0
    for _, cell in t4.groupby("graph", sort=False):
        s5p = cell[cell.method == "S5P"].iloc[0]
        respecting = cell[cell.balance.round(2) <= 1.0]
        lowest += s5p.rf == respecting.rf.min()
        fastest += s5p.time_s == cell.time_s.min()
        lighter += s5p.mem_mb < cell[cell.method == "CLUGP"].mem_mb.iloc[0]
    lines += [
        "",
        f"Among the τ-respecting rows (balance 1.00), S5P has the lowest RF on "
        f"{lowest} of the {t4.graph.nunique()} graphs; it is the fastest of the "
        f"five methods on {fastest}, and its memory peak is below CLUGP's on "
        f"{lighter}.",
    ]
    return "\n".join(lines)


def table5_markdown(df: pd.DataFrame) -> str:
    """Table 5: the optimum and each method's α = RF/Opt against the paper's."""
    shape = {r.graph: (r.n_vertices, r.n_edges) for r in loaded(df, "table5").itertuples()}
    lines = [
        "| Graph | Opt paper/ours | " + " | ".join(f"{m} α paper/ours" for m in TABLE5_METHODS) + " |",
        "|---|---|" + "---|" * len(TABLE5_METHODS),
    ]
    alphas, gaps = [], []
    for graph, cell in cells(df, "table5").groupby("graph", sort=False):
        rf = dict(zip(cell.method, cell.rf))
        alpha = {m: rf[m] / rf["Opt"] for m in TABLE5_METHODS}
        paper_opt, paper = PAPER_TABLE5[graph]
        alphas += alpha.values()
        gaps.append(alpha["S5P"] - min(alpha.values()))
        n_v, n_e = map(int, shape[graph])
        lines.append(
            f"| G_{GREEK[graph[2:]]}({n_v},{n_e}) | {paper_opt:.2f} / {rf['Opt']:.2f} | "
            + " | ".join(f"{paper[m][1]:.2f} / {alpha[m]:.2f}" for m in TABLE5_METHODS) + " |"
        )
    paper_alphas = [a for _, methods in PAPER_TABLE5.values() for _, a in methods.values()]
    lines += [
        "",
        f"α spans {min(alphas):.2f}–{max(alphas):.2f} (paper: "
        f"{min(paper_alphas):.2f}–{max(paper_alphas):.2f}). S5P's α is at most "
        f"{max(gaps):.2f} above the lowest α on each graph.",
    ]
    return "\n".join(lines)


def blocks(df: pd.DataFrame) -> dict[str, str]:
    """The rendered EXPERIMENTS.md blocks, by marker name."""
    return {
        "table2": table2_markdown(df),
        "table3": table3_markdown(df),
        "table4": table4_markdown(df),
        "table5": table5_markdown(df),
    }


def marked(text: str, name: str) -> re.Match:
    """The ``<!-- BEGIN name -->`` … ``<!-- END name -->`` block of ``text``."""
    m = re.search(rf"(<!-- BEGIN {name} -->\n)(.*?)\n(<!-- END {name} -->)", text, re.S)
    if m is None:
        raise ValueError(f"no {name} markers in the document")
    return m


def main() -> None:
    text = EXPERIMENTS.read_text()
    for name, body in blocks(pd.read_csv(RESULTS)).items():
        m = marked(text, name)
        text = text[: m.start(2)] + body + text[m.end(2) :]
    EXPERIMENTS.write_text(text)


if __name__ == "__main__":
    main()
