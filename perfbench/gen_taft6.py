"""Write the explicit Taft(6) documents the cli-docs workload reads.

Usage: PYTHONPATH=src python3 perfbench/gen_taft6.py

Each document holds taft(6, q) over F7 in the explicit normal form, with
the antipode the library solved for, so loading it never solves again.
Solving takes about 19 s per document, which is why they are stored.
"""

from pathlib import Path

from hopfgal import Document, PrimeField, dump_document, taft

DATA = Path(__file__).resolve().parent / "data"

if __name__ == "__main__":
    K = PrimeField(7)
    DATA.mkdir(exist_ok=True)
    for q in (3, 5):
        doc = Document(K, hopf_algebras={"T": taft(6, q, K)})
        (DATA / f"taft6_F7_q{q}.json").write_text(dump_document(doc))
