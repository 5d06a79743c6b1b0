"""Frozen comparison reports from three sample calibration sessions.

Each session is a full ten-model fit of real multi-view data from a
different camera, kept here as immutable fixtures. They serve two jobs in
the test suite: the report renderer is pinned byte-for-byte against the
"microsoft" session, and the inversion suites borrow the fitted coefficient
vectors as realistic magnitudes for every model.

Session objectives are stored in raw squared-pixel units. The ranks are the
ascending-objective permutation within each session.
"""

from __future__ import annotations

from .calibration import ModelFitReport, ModelFitRow
from .core import IntrinsicParams
from .errors import UnknownModel

# Per row: model_id, objective, rank, coefficients, (alpha, gamma, u0, beta, v0).
_SESSIONS: dict[str, tuple[tuple, ...]] = {
    "microsoft": (
        (0, 144.8802, 2, (-0.2286, 0.1905), (832.4860, 0.2042, 303.9605, 832.5157, 206.5811)),
        (1, 180.5714, 8, (-0.0984,), (845.3051, 0.1918, 303.5723, 845.2628, 208.4394)),
        (2, 148.2789, 7, (-0.1984,), (830.7425, 0.2166, 303.9486, 830.7983, 206.5574)),
        (3, 145.6592, 5, (-0.0215, -0.1566), (833.6508, 0.2075, 303.9847, 833.6866, 206.5553)),
        (4, 185.0628, 9, (0.1031,), (846.1300, 0.1921, 303.5070, 846.0823, 208.6944)),
        (5, 147.0000, 6, (0.2050,), (831.0863, 0.2139, 303.9647, 831.1368, 206.5175)),
        (6, 145.4682, 4, (-0.0174, 0.1702), (833.3970, 0.2071, 303.9689, 833.4324, 206.5567)),
        (7, 145.4504, 3, (0.0170, 0.1725), (833.3849, 0.2068, 303.9719, 833.4198, 206.5443)),
        (8, 144.8328, 1, (1.6457, 1.6115, 0.4054), (830.9411, 0.2044, 303.9571, 830.9705, 206.5833)),
        (9, 144.8257, 0, (1.2790, -0.0119, 1.5478), (831.7373, 0.2045, 303.9573, 831.7665, 206.5925)),
    ),
    "desktop": (
        (0, 779.0, 0, (-0.3435, 0.1232), (277.1449, -0.5731, 153.9882, 270.5582, 119.8105)),
        (1, 1016.7, 8, (-0.2466,), (295.5734, -0.8196, 156.6108, 288.8763, 119.8528)),
        (2, 904.7, 7, (-0.2765,), (275.5953, -0.6665, 158.2016, 269.2301, 121.5257)),
        (3, 803.3, 6, (-0.1067, -0.1577), (282.5642, -0.6199, 154.4913, 275.9019, 120.0924)),
        (4, 1201.8, 9, (0.3045,), (302.2339, -1.0236, 160.5601, 295.6767, 120.7448)),
        (5, 798.6, 5, (0.3252,), (276.2521, -0.5780, 154.7976, 269.7064, 120.3235)),
        (6, 787.6, 4, (-0.0485, 0.2644), (279.5062, -0.5888, 154.1735, 272.8822, 119.9564)),
        (7, 786.4, 3, (0.0424, 0.2834), (279.3268, -0.5870, 154.1168, 272.7049, 119.9214)),
        (8, 780.9, 2, (0.5868, 0.5271, 0.5302), (275.8311, -0.5735, 153.9991, 269.2828, 119.8195)),
        (9, 780.0, 1, (0.2768, -0.0252, 0.6778), (276.4501, -0.5731, 153.9914, 269.8850, 119.8091)),
    ),
    "odis": (
        (0, 840.3, 2, (-0.3554, 0.1633), (260.7658, -0.2741, 140.0581, 255.1489, 113.1727)),
        (1, 944.4, 8, (-0.2327,), (274.2660, -0.1153, 140.3620, 268.3070, 114.3916)),
        (2, 933.1, 7, (-0.2752,), (258.3193, -0.5165, 137.2150, 252.6856, 115.9302)),
        (3, 851.3, 5, (-0.1192, -0.1365), (266.0850, -0.3677, 139.9198, 260.3133, 113.2412)),
        (4, 1036.6, 9, (0.2828,), (278.0218, -0.0289, 139.5948, 271.9274, 116.2992)),
        (5, 867.6, 6, (0.3190,), (259.4947, -0.4301, 139.1252, 253.8698, 113.9611)),
        (6, 845.0, 4, (-0.0815, 0.2119), (264.4038, -0.3505, 140.0528, 258.6809, 113.1445)),
        (7, 843.8, 3, (0.0725, 0.2419), (264.1341, -0.3429, 140.1092, 258.4206, 113.1129)),
        (8, 837.9, 0, (1.2859, 1.1839, 0.7187), (259.2880, -0.2824, 140.2936, 253.7043, 113.0078)),
        (9, 838.3, 1, (0.4494, -0.0124, 0.8540), (260.9370, -0.2804, 140.2437, 255.3178, 113.0561)),
    ),
}


def reference_sessions() -> tuple[str, ...]:
    """Names of the bundled sessions."""
    return tuple(_SESSIONS)


def _rows(session: str) -> tuple[tuple, ...]:
    """One bundled session's rows; ValueError naming the sessions if unknown."""
    try:
        return _SESSIONS[session]
    except KeyError:
        raise ValueError(
            f"unknown session {session!r}; available: {', '.join(_SESSIONS)}"
        ) from None


def reference_report(session: str) -> ModelFitReport:
    """The frozen ten-model report for one bundled session."""
    return ModelFitReport(
        rows=tuple(
            ModelFitRow(
                model_id=mid,
                objective=obj,
                rank=rank,
                coefficients=k,
                intrinsics=IntrinsicParams.from_tuple(intr),
            )
            for mid, obj, rank, k, intr in _rows(session)
        )
    )


def reference_coefficients(session: str, model_id: int) -> tuple[float, ...]:
    """Fitted coefficients of one model in one bundled session, read from its row."""
    for mid, _, _, k, _ in _rows(session):
        if mid == model_id:
            return k
    raise UnknownModel(f"model {model_id!r} not in session {session!r}")
