"""The full pipeline: hypothesis ledgers and the two-sided bound.

For E/Q and an odd prime p of good reduction, the engine evaluates the
hypothesis ledgers and emits, per Selmer-dimension scenario d,

    max(0, d - 1)  <=  dim Hom_G(Cl_K / p Cl_K, E[p])  <=  d + #T

with K = Q(E[p]).  Arithmetic inputs (rank, Sha) come from committed
fixture records, so this demo runs fully offline.

Run:  python3 demos/05_certified_bounds.py
"""

from shaclass import CurveModel, analyze, certificate_to_text
from shaclass.selmerdata import (
    OFFLINE_ONLY,
    default_config,
    fetch_curve_record,
)

config = default_config()

# Featured curve one: rank 0, Sha[5] of rank two.  Every hypothesis holds,
# the class group of Q(E[5]) acquires a quotient isomorphic to E[5], and
# the Selmer dimension 2 gives bounds 1 <= dim Hom <= 3 (T = {2}).
record = fetch_curve_record("1058d1", OFFLINE_ONLY, config)
cert = analyze(CurveModel(*record.ainvs), 5, record=record, label="1058d1")
print(certificate_to_text(cert))

# Featured curve two: rank 0 with |Sha| = 625 of unknown group structure.
# Both Sha shapes are carried as separate scenarios, T is empty, and the
# bounds pin dim Hom to the Selmer dimension exactly.
record = fetch_curve_record("423801ci1", OFFLINE_ONLY, config)
cert = analyze(CurveModel(*record.ainvs), 5, record=record, label="423801ci1")
print(certificate_to_text(cert))

# Degradation is graceful: without an arithmetic record the ledgers are
# still evaluated, but no Selmer scenarios or bounds are emitted.
cert = analyze(CurveModel(1, -1, 0, -332311, -73733731), 5, record=None)
print("without a record: bounds emitted?", cert["bounds"] is not None)
print("ledger for the direct theorem still applicable?", cert["ledgers"]["Main"]["applicable"])
