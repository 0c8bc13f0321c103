"""Secure analytics: Cypherbase-style processing over encrypted data (§5.5).

The table lives *encrypted at rest* in disaggregated memory (AES-128-CTR).
The Farview node decrypts the stream inside the trusted FPGA, applies the
operators, and (optionally) re-encrypts the result for transmission — the
client is the only other party that ever sees plaintext.

Scenarios:
1. regex matching over encrypted string data ("regular expression matching
   on encrypted strings, which requires decryption early in the pipeline",
   §5.1),
2. selection over an encrypted table with the result re-encrypted under a
   fresh session key for the wire.

Run:  python examples/secure_analytics.py
"""

import numpy as np

from repro.common.expr import Col, TextMatch, eval_mask
from repro.common.units import to_us
from repro.core.api import FarviewClient
from repro.core.node import FarviewNode
from repro.core.query import Query
from repro.core.table import FTable
from repro.operators.crypto import AesCtr
from repro.operators.encryption_op import encrypt_table_image
from repro.operators.selection import Compare
from repro.sim.engine import Simulator
from repro.workloads.generator import (
    REGEX_PATTERN,
    selection_workload,
    string_workload,
)

STORAGE_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
STORAGE_NONCE = b"\x01" * 12
SESSION_KEY = bytes.fromhex("ffeeddccbbaa99887766554433221100")
SESSION_NONCE = b"\x02" * 12


def main() -> None:
    sim = Simulator()
    node = FarviewNode(sim)
    client = FarviewClient(node)
    client.open_connection()

    # ---- scenario 1: regex over encrypted strings ------------------------------
    schema, rows = string_workload(num_rows=64, string_bytes=128,
                                   match_fraction=0.3)
    plain_image = schema.to_bytes(rows)
    cipher_image = encrypt_table_image(plain_image, STORAGE_KEY,
                                       STORAGE_NONCE)
    assert cipher_image != plain_image
    table = FTable("docs", schema, len(rows), encrypted=True,
                   key=STORAGE_KEY, nonce=STORAGE_NONCE)
    client.alloc_table_mem(table)
    client.table_write(table, cipher_image)
    print(f"stored {len(cipher_image)} encrypted bytes")

    query = Query(regex=TextMatch(Col("s"), REGEX_PATTERN, regexp=True),
                  decrypt_input=True, label="secure-regex")
    client.far_view(table, query)
    result, elapsed = client.far_view(table, query)
    matched = result.rows()
    expected = {int(r["id"]) for r in rows if b"farview" in bytes(r["s"])}
    assert set(matched["id"].tolist()) == expected
    print(f"regex {REGEX_PATTERN!r} over encrypted strings: "
          f"{len(matched)}/{len(rows)} matches in {to_us(elapsed):.1f} us")

    # ---- scenario 2: selection + re-encrypted transmission -----------------------
    wl = selection_workload(4096, 0.2)
    sel_image = encrypt_table_image(wl.schema.to_bytes(wl.rows),
                                    STORAGE_KEY, STORAGE_NONCE)
    sel_table = FTable("records", wl.schema, len(wl.rows), encrypted=True,
                       key=STORAGE_KEY, nonce=STORAGE_NONCE)
    client.alloc_table_mem(sel_table)
    client.table_write(sel_table, sel_image)

    query = Query(predicate=wl.predicate, decrypt_input=True,
                  encrypt_output=(SESSION_KEY, SESSION_NONCE),
                  label="secure-select")
    client.far_view(sel_table, query)
    result, elapsed = client.far_view(sel_table, query)

    expected_rows = wl.rows[eval_mask(wl.predicate, wl.rows)]
    # The bytes on the wire are ciphertext under the session key...
    assert result.data != wl.schema.to_bytes(expected_rows)
    # ...and the client decrypts them with its session key.
    plain = AesCtr(SESSION_KEY, SESSION_NONCE).process(result.data)
    got = wl.schema.from_bytes(plain)
    assert np.array_equal(got["a"], expected_rows["a"])
    print(f"selection over encrypted table, re-encrypted transmission: "
          f"{len(got)} rows in {to_us(elapsed):.1f} us")
    print("plaintext existed only inside the (simulated) FPGA. done.")


if __name__ == "__main__":
    main()
