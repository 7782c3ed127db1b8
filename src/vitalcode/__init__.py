"""Coded-monoprocessor safety toolkit.

Arithmetic-coded data with static signatures and freshness dates, offline
signature predetermination over a small DSL, a fault-injection runtime,
classic channel codes (parity, CRC, Hamming), HMAC message
authentication, redundancy voting, and a telegram channel campaign
harness contrasting accidental-fault coverage with resistance to
malicious modification.
"""

__version__ = "0.1.0"
