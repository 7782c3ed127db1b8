"""Coded-monoprocessor safety toolkit.

Arithmetic-coded data with static signatures and freshness dates, offline
signature predetermination over a small DSL, a fault-injection runtime,
classic channel codes (parity, CRC, Hamming), HMAC message
authentication, redundancy voting, and a telegram channel campaign
harness contrasting accidental-fault coverage with resistance to
malicious modification.
"""

from .coded_core import (CodeKey, CodedCoreError, CodedValue,
                         FunctionalOverflow, check, encode, make_key,
                         opel_add, opel_mul, opel_move, opel_sub)
from .dsl import ProgramIR, interpret, parse_program
from .sigtool import (CodedProgram, SignatureTable, assign_signatures,
                      build, emit_prom, load_prom, predetermine)
from .coded_runtime import (FaultSpec, InjectionReport, inject_fault,
                            run_campaign, run_cycle)
from .channel_codes import (CRC_CATALOG, CrcParams, crc_compute,
                            hamming74_decode, hamming74_encode, parity_bit)
from .mac import MacKey, hash_digest, hmac_tag
from .redundancy import VoteConfig, redundancy_campaign, vote
from .telegram import (ProtectionScheme, Telegram, Threat, apply_attack,
                       apply_channel_noise, protect_telegram, verify_telegram)
from .campaign import CampaignConfig, run_channel_campaign

__version__ = "0.1.0"
