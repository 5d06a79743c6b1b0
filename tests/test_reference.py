import pytest

import radialcal as rc


def test_session_names():
    assert rc.reference_sessions() == ("microsoft", "desktop", "odis")


def test_reports_cover_all_models():
    for session in rc.reference_sessions():
        rep = rc.reference_report(session)
        assert [r.model_id for r in rep.rows] == list(range(10))


def test_ranks_follow_ascending_objective():
    for session in rc.reference_sessions():
        rep = rc.reference_report(session)
        by_rank = sorted(rep.rows, key=lambda r: r.rank)
        objectives = [r.objective for r in by_rank]
        assert objectives == sorted(objectives)
        # No two fitted objectives coincide in any of the sessions.
        assert len(set(objectives)) == len(objectives)


def test_coefficient_counts_match_model():
    for session in rc.reference_sessions():
        for row in rc.reference_report(session).rows:
            assert len(row.coefficients) == rc.coefficient_arity(row.model_id)


def test_intrinsics_are_plausible():
    for session in rc.reference_sessions():
        for row in rc.reference_report(session).rows:
            A = row.intrinsics
            assert 100.0 < A.alpha < 3000.0
            assert 100.0 < A.beta < 3000.0
            assert abs(A.gamma) < 20.0


def test_microsoft_single_parameter_rational_row():
    row = rc.reference_report("microsoft").rows[5]
    assert row.objective == pytest.approx(147.0, abs=1e-9)
    assert row.rank == 6
    assert row.coefficients == (0.205,)
    assert row.intrinsics.alpha == pytest.approx(831.0863, abs=1e-9)


def test_coefficients_accessor_matches_report():
    for session in rc.reference_sessions():
        rep = rc.reference_report(session)
        for mid in range(10):
            assert rc.reference_coefficients(session, mid) == rep.rows[mid].coefficients


def test_unknown_session():
    with pytest.raises(ValueError, match="microsoft"):
        rc.reference_report("garage")
    with pytest.raises(ValueError):
        rc.reference_coefficients("garage", 3)


def test_unknown_model():
    with pytest.raises(rc.UnknownModel):
        rc.reference_coefficients("microsoft", 12)


def test_coefficients_read_the_session_row(monkeypatch):
    # The accessor reads _SESSIONS itself, without building the ten-row report.
    import radialcal.reference as reference_mod

    def no_report(**_):
        raise AssertionError("reference_coefficients built a report")

    monkeypatch.setattr(reference_mod, "ModelFitReport", no_report)
    assert rc.reference_coefficients("desktop", 9) == (0.2768, -0.0252, 0.6778)
    with pytest.raises(ValueError, match=r"^unknown session 'garage'; available: microsoft"):
        rc.reference_coefficients("garage", 3)
    with pytest.raises(rc.UnknownModel, match=r"model 12 not in session 'odis'"):
        rc.reference_coefficients("odis", 12)
