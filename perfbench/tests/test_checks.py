import io

import checks

TOLERANCES = {"ball": 1e-9, "avg_h": 1e-7, "flat": 1e-8, "sphere": 1e-8, "main": 1e-8,
              "bow": 1e-8, "constant_k": 1e-10, "conjecture": 1e-9}


def good_reports():
    out = []
    for name, status in checks.VERIFY_D4_STATUSES:
        tol = TOLERANCES.get(name)
        out.append({"name": name, "status": status, "pass": None if tol is None else True,
                    "margin": None if tol is None else 4e-16, "tolerance": tol})
    return out


def good_analyze():
    summary = {"max_gauss_residual": 3e-14, "K_min": 0.9, "K_max": 1.8}
    row = ",".join(["0.5"] * checks.ANALYZE_COLUMNS)
    text = "\n".join(["h" + ",h" * (checks.ANALYZE_COLUMNS - 1)] + [row] * checks.ANALYZE_ROWS)
    return summary, text + "\n"


def good_explore(iterations=5, restarts=2):
    history = [1.6, 1.55, 1.55, 1.52, 1.51, 1.51, 1.505, 1.505, 1.501, 1.501]
    return {"counterexample_candidate": False, "sup_zh": 1.5004, "max_norm": 0.999,
            "objective_history": history[:iterations * restarts]}


def test_good_outputs_pass():
    assert checks.verify_d4(0, good_reports()) == []
    summary, text = good_analyze()
    assert checks.analyze_wavy3(0, summary, io.StringIO(text)) == []
    assert checks.explore_n2(0, good_explore(), 5, 2) == []


def test_flipped_status_fails():
    reports = good_reports()
    reports[0]["status"] = "fail"
    assert checks.verify_d4(0, reports)


def test_margin_beyond_tolerance_fails():
    reports = good_reports()
    reports[7]["margin"] = -2e-10
    assert checks.verify_d4(0, reports)


def test_verify_nonzero_exit_fails():
    assert checks.verify_d4(1, good_reports())


def test_gauss_residual_fails():
    summary, text = good_analyze()
    summary["max_gauss_residual"] = 1e-3
    assert checks.analyze_wavy3(0, summary, io.StringIO(text))


def test_nonfinite_csv_fails():
    summary, text = good_analyze()
    assert checks.analyze_wavy3(0, summary,
                                io.StringIO(text.replace("0.5", "nan", 1 + checks.ANALYZE_COLUMNS)))


def test_short_csv_fails():
    summary, text = good_analyze()
    assert checks.analyze_wavy3(0, summary, io.StringIO(text.rsplit("\n", 2)[0] + "\n"))


def test_short_row_fails():
    summary, text = good_analyze()
    assert checks.analyze_wavy3(0, summary, io.StringIO(text.replace(",0.5\n", "\n", 1)))


def test_k_order_fails():
    summary, text = good_analyze()
    summary["K_min"], summary["K_max"] = 2.0, 1.0
    assert checks.analyze_wavy3(0, summary, io.StringIO(text))


def test_truncated_history_fails():
    payload = good_explore()
    payload["objective_history"] = payload["objective_history"][:-1]
    assert checks.explore_n2(0, payload, 5, 2)


def test_increasing_history_fails():
    payload = good_explore()
    payload["objective_history"][3] = 1.7
    assert checks.explore_n2(0, payload, 5, 2)


def test_candidate_or_low_sup_fails():
    payload = good_explore()
    payload["counterexample_candidate"] = True
    assert checks.explore_n2(0, payload, 5, 2)
    payload = good_explore()
    payload["sup_zh"] = 1.49
    assert checks.explore_n2(0, payload, 5, 2)
    payload["max_norm"] = 1.01           # outside the ball the bound is not claimed
    assert checks.explore_n2(0, payload, 5, 2) == []

