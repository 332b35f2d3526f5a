"""CLI invocations that regenerate the data behind the standard figures.

Keys are figure numbers; values are lists of argv lists (one per curve
family).  ``scripts/figure_data.py`` writes the corresponding CSV files.
"""

_BETAS_DENSE = "0:0.999999:200"
_THETA_FULL = "0:pi:181"


def _theta_scans(quantity, particle, s, betas):
    return [["scan", "--quantity", quantity, "--particle", particle, "--s", s,
             "--beta", str(b), "--theta", _THETA_FULL] for b in betas]


FIGURE_SCANS = {
    1: [["scan", "--quantity", "q_halfplane", "--particle", "boson",
         "--s", s, "--beta", _BETAS_DENSE] for s in ("1", "2")]
       + [["scan", "--quantity", "q_halfplane", "--particle", "electron",
           "--s", s, "--beta", _BETAS_DENSE] for s in ("1", "2")],
    2: _theta_scans("p", "boson", "2", [0.0, 0.5, 0.8, 1.0]),
    3: _theta_scans("p", "electron", "2", [0.0, 0.5, 0.9, 1.0]),
    4: _theta_scans("p", "boson", "3", [0.0, 0.8, 1.0]),
    5: _theta_scans("p", "electron", "3", [0.0, 0.9, 0.999, 1.0]),
    6: _theta_scans("p", "boson", "1", [0.0, 0.7, 0.9, 1.0]),
    7: _theta_scans("p", "electron", "1", [0.0, 0.8, 0.96, 0.999]),
    8: _theta_scans("p", "boson", "0", [0.0, 0.7, 0.9, 1.0]),
    9: _theta_scans("p", "electron", "0", [0.0, 0.8, 0.96, 1.0]),
    10: [["maxima", "--particle", "electron", "--s", s,
          "--beta", "0.75:0.995:25"] for s in ("0", "1", "3")],
    11: [["maxima", "--particle", "electron", "--s", s,
          "--beta", "0.75:0.995:25"] for s in ("0", "1", "3")],
    12: [["scan", "--quantity", "eff_angle", "--particle", p, "--s", s,
          "--beta", "0:0.99:12"]
         for p in ("boson", "electron") for s in ("0", "1", "2", "3")],
    13: _theta_scans("q_local", "boson", "1", [0.0, 0.7, 0.9, 1.0]),
    14: _theta_scans("q_local", "electron", "1", [0.0, 0.8, 0.99, 0.999999]),
    15: _theta_scans("q_local", "boson", "2", [0.0, 0.7, 0.9, 1.0]),
    16: _theta_scans("q_local", "electron", "2", [0.0, 0.8, 0.99, 0.999999]),
}
