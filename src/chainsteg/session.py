"""Sender/receiver state machines: funding, framing across transactions,
detection scanning, key rotation, and parameter switching.

Counters are per-domain and advance on accepted submission (sender) or on
processed receipt (receiver). Detection derives candidate signal addresses
for a bounded look-ahead window in every live key generation, so a lost or
quarantined transaction cannot deadlock the receiver.

Medium messages travel as: 16-bit byte-length prefix || message bits ||
random padding, split into per-transaction payloads of the configured
capacity. High messages use the frame layout in the high module; version 2
frames rotate keys, version 3 frames switch channel parameters.
"""

from __future__ import annotations

import heapq
import json
import random
import struct
from dataclasses import dataclass, field

from . import backend, ec, high, medium
from .bitio import bits_to_bytes, bits_to_int, bytes_to_bits, int_to_bits
from .errors import AuthError, PermutationMismatch, TagCorruption, ValidationError
from .files import write_atomic
from .hdw import DOMAIN_GRIND, Channel, KeyMaterial
from .ledger import DEFAULT_FEE, DUST, Ledger, StegoTransaction, TxInput, TxOutput

_MAGIC = b"CSSN"
_FORMAT_VERSION = 1

SCAN_WINDOW = 16  # signal counters per channel and generation a receive probes


@dataclass
class WalletUtxo:
    txid: bytes
    vout: int
    amount: int
    generation: int
    grind_counter: int

    def __lt__(self, other: "WalletUtxo") -> bool:
        # wallet is a largest-first heap
        return self.amount > other.amount


@dataclass
class Generation:
    """Key material plus every counter scoped to it."""

    km: KeyMaterial
    next_signal: dict[str, int] = field(default_factory=lambda: {"HIGH": 1, "MED": 1})
    next_grind: int = 1
    high_nonce_guard: dict[int, bytes] = field(default_factory=dict)
    processed_control: set[int] = field(default_factory=set)
    med_bits: list[int] = field(default_factory=list)
    # channel parameters keyed by the MED counter they apply from; config
    # switches announce their effective counter so processing order across
    # channels cannot misapply them
    med_cfg_schedule: list = field(default_factory=list)

    def __post_init__(self):
        self.reassembler = high.Reassembler(self.km.k)

    def fresh_wallet_address(self) -> tuple[bytes, int]:
        """Digest at the next grind counter, and that counter (consumed)."""
        counter = self.next_grind
        self.next_grind += 1
        digest = backend.get().derive_digest(self.km.k, DOMAIN_GRIND, counter, self.km.gy)
        return digest, counter

    def cfg_at(self, counter: int) -> medium.ChannelConfig:
        chosen = self.med_cfg_schedule[0][1]
        for from_counter, cfg in self.med_cfg_schedule:
            if from_counter <= counter:
                chosen = cfg
        return chosen


class SessionState:
    """Single-writer session; sender and receiver share only the ledger."""

    def __init__(self, km: KeyMaterial, cfg: medium.ChannelConfig, seed: int = 0):
        self.cfg = cfg
        self.cursor = 0
        self.rng = random.Random(seed)
        self.next_msg_id = 0
        self.generations: list[Generation] = [
            Generation(km=km, med_cfg_schedule=[(1, cfg)])
        ]
        self.inbox: list[tuple[str, bytes]] = []
        self.quarantine: list[tuple[str, str]] = []
        self.wallet: list[WalletUtxo] = []
        self.embed_log: list[dict] = []
        # receive-side caches, rebuilt after a load: the digest of each
        # (generation, channel, counter) in a scan window, and whether a MED
        # (generation, counter) is usable under the cfg stored with it
        self._candidates: dict[tuple[int, str, int], bytes | None] = {}
        self._usable: dict[tuple[int, int], tuple[medium.ChannelConfig, bool]] = {}

    @property
    def current(self) -> Generation:
        return self.generations[-1]

    @property
    def key_gen(self) -> int:
        return len(self.generations) - 1

    # -- wallet -------------------------------------------------------------

    def wallet_balance(self) -> int:
        return sum(u.amount for u in self.wallet)

    def wallet_add(self, utxo: WalletUtxo) -> None:
        heapq.heappush(self.wallet, utxo)

    def _select_utxos(self, needed: int) -> list[WalletUtxo]:
        """Pop largest-first until the target is funded; the caller spends
        everything popped."""
        chosen, total = [], 0
        while total < needed and self.wallet:
            utxo = heapq.heappop(self.wallet)
            chosen.append(utxo)
            total += utxo.amount
        if total < needed:
            for utxo in chosen:
                heapq.heappush(self.wallet, utxo)
            raise ValidationError(
                f"insufficient funds: wallet holds {total}, need {needed}"
            )
        return chosen

    def _wallet_digest(self, utxo: WalletUtxo) -> bytes:
        gen = self.generations[utxo.generation]
        return backend.get().derive_digest(
            gen.km.k, DOMAIN_GRIND, utxo.grind_counter, gen.km.gy
        )

    def _fund(self, ledger: Ledger, target_digest: bytes, amount: int) -> tuple[bytes, int]:
        """Pay `amount` onto the signal address; returns the new outpoint."""
        utxos = self._select_utxos(amount + DEFAULT_FEE)
        total_in = sum(u.amount for u in utxos)
        change = total_in - amount - DEFAULT_FEE
        outputs = [TxOutput(target_digest, amount)]
        change_entry = None
        fee = DEFAULT_FEE
        if change >= DUST:
            digest, counter = self.current.fresh_wallet_address()
            outputs.append(TxOutput(digest, change))
            change_entry = (digest, counter, change)
        else:
            fee += change  # burn sub-dust remainder as extra fee
        tx = StegoTransaction(
            inputs=tuple(
                TxInput(u.txid, u.vout, self._wallet_digest(u)) for u in utxos
            ),
            outputs=tuple(outputs),
            fee=fee,
        )
        try:
            txid = ledger.submit(tx)
        except Exception:
            for utxo in utxos:  # restore unspent funds
                heapq.heappush(self.wallet, utxo)
            raise
        if change_entry is not None:
            self.wallet_add(
                WalletUtxo(txid, 1, change_entry[2], self.key_gen, change_entry[1])
            )
        return (txid, 0)

    # -- ledger bootstrap ----------------------------------------------------

    def genesis_ledger(self, amount: int = 10**12) -> Ledger:
        """Create a fresh chain whose genesis funds this session's wallet."""
        digest, counter = self.current.fresh_wallet_address()
        ledger = Ledger.create(genesis_allocations=[(digest, amount)])
        coinbase = ledger.blocks[0].transactions[0]
        self.wallet_add(WalletUtxo(coinbase.txid, 1, amount, self.key_gen, counter))
        return ledger

    # -- sending -------------------------------------------------------------

    def _submit_stego(self, ledger: Ledger, template, channel: str) -> bytes:
        outpoint = self._fund(ledger, template.signal_address.digest,
                              template.required_funding)
        tx = template.transaction(outpoint)
        txid = ledger.submit(tx)
        self.current.next_signal[channel] = template.counter + 1
        n_outs = len(tx.outputs)
        self.wallet_add(
            WalletUtxo(txid, n_outs - 1, template.change_output.amount,
                       self.key_gen, template.change_index.counter)
        )
        audit_entries = [(n_outs - 1, template.change_index.counter)]
        audit_entries += [
            (vout, rec.index.counter) for vout, rec in enumerate(template.grind_records)
        ]
        self.embed_log.append(
            {
                "txid": txid.hex(),
                "generation": self.key_gen,
                "channel": channel,
                "counter": template.counter,
                "entries": audit_entries,
            }
        )
        return txid

    def _send_med(self, ledger: Ledger, message: bytes, confirm=None) -> list[bytes]:
        cap = medium.payload_bits_per_tx(self.cfg)
        if not cap or cap < 1:
            raise ValidationError("configured capacity too small")
        if len(message) >= 2**16:
            raise ValidationError("medium message exceeds 16-bit length prefix")
        bits = int_to_bits(len(message), 16) + bytes_to_bits(message)
        n_txs = max(1, -(-len(bits) // cap))
        while len(bits) < n_txs * cap:
            bits.append(self.rng.getrandbits(1))
        gen = self.current
        txids = []
        for i in range(n_txs):
            chunk = bits[i * cap : (i + 1) * cap]
            gen.next_signal["MED"] = medium.next_usable_counter(
                gen.km.k, gen.next_signal["MED"], self.cfg
            )
            template = medium.embed(gen, chunk, self.cfg, self.rng)
            txids.append(self._submit_stego(ledger, template, "MED"))
            if confirm is not None:
                confirm()
        return txids

    def _send_high(self, ledger: Ledger, message: bytes,
                   version: int = high.VERSION_DATA, confirm=None) -> list[bytes]:
        gen = self.current
        msg_id = self.next_msg_id & 0xFFF
        counter0 = gen.next_signal["HIGH"]
        fingerprint = high.guard_nonce(gen, counter0, message, msg_id, version)
        fields = high.frame_message(gen.km, message, msg_id, counter0, self.rng, version)
        per_tx = self.cfg.max_fields_per_tx or len(fields)
        txids = []
        for i in range(0, len(fields), per_tx):
            template = high.tx_template(gen, fields[i : i + per_tx], self.rng)
            txids.append(self._submit_stego(ledger, template, "HIGH"))
            gen.high_nonce_guard[counter0] = fingerprint
            if confirm is not None:
                confirm()
        self.next_msg_id += 1
        return txids

    def send_message(self, ledger: Ledger, message: bytes, channel: Channel,
                     confirm=None) -> list[bytes]:
        """Submit a message; returns txids in send order.

        `confirm` is an optional zero-argument callable invoked after every
        stego transaction (confirm-gated sending, e.g. lambda:
        ledger.mine_block(...)); by default all transactions are submitted
        eagerly into one mempool generation.
        """
        if channel is Channel.MED:
            return self._send_med(ledger, message, confirm)
        return self._send_high(ledger, message, confirm=confirm)

    def rotate_keys(self, ledger: Ledger) -> KeyMaterial:
        """Generate fresh material, announce it over the high channel under
        the old key, then switch; old counters freeze."""
        new_km = KeyMaterial.generate(self.rng)
        payload = new_km.k + new_km.y.to_bytes(32, "big")
        self._send_high(ledger, payload, version=high.VERSION_ROTATE)
        self.generations.append(
            Generation(km=new_km, med_cfg_schedule=[(1, self.cfg)])
        )
        return new_km

    def switch_config(self, ledger: Ledger, new_cfg: medium.ChannelConfig) -> list[bytes]:
        """Announce new channel parameters over the high channel, effective
        from this generation's next MED counter, then apply locally."""
        from_med = self.current.next_signal["MED"]
        payload = _config_frame(from_med, new_cfg)
        txids = self._send_high(ledger, payload, version=high.VERSION_CONFIG)
        self.current.med_cfg_schedule.append((from_med, new_cfg))
        self.cfg = new_cfg
        return txids

    # -- receiving -----------------------------------------------------------

    def _window_counters(self, gen_idx: int, channel: Channel) -> list[int]:
        """The next SCAN_WINDOW counters the sender could use: unusable
        PERMUTED counters are skipped on both sides, so they do not count
        against the window."""
        gen = self.generations[gen_idx]
        start = gen.next_signal[channel.name]
        if channel is Channel.HIGH:
            return list(range(start, start + SCAN_WINDOW))
        out = []
        counter = start
        limit = start + 64 * SCAN_WINDOW  # safety stop, never binding
        while len(out) < SCAN_WINDOW and counter < limit:
            cfg = gen.cfg_at(counter)
            memo = self._usable.get((gen_idx, counter))
            # a config switch processed since the memo was made changes cfg;
            # compared by identity, as hashing or == on a cfg costs ~10x the
            # dict lookup
            if memo is None or memo[0] is not cfg:
                memo = self._usable[(gen_idx, counter)] = (
                    cfg, medium.med_counter_usable(gen.km.k, counter, cfg)
                )
            if memo[1]:
                out.append(counter)
            counter += 1
        return out

    def _window_candidates(self) -> dict[tuple[int, str, int], bytes | None]:
        """Digest per (generation, channel, counter) in the scan windows.
        Each is derived once and kept until its counter is processed."""
        for gen_idx, gen in enumerate(self.generations):
            for channel in (Channel.HIGH, Channel.MED):
                for counter in self._window_counters(gen_idx, channel):
                    key = (gen_idx, channel.name, counter)
                    if key not in self._candidates:
                        self._candidates[key] = backend.get().derive_digest(
                            gen.km.k, channel.value, counter, gen.km.gy
                        )
        # prune both caches behind the per-generation counters
        gens = self.generations
        self._candidates = {
            key: digest for key, digest in self._candidates.items()
            if key[2] >= gens[key[0]].next_signal[key[1]]
        }
        self._usable = {
            key: memo for key, memo in self._usable.items()
            if key[1] >= gens[key[0]].next_signal["MED"]
        }
        return self._candidates

    def _complete_med(self, gen: Generation) -> None:
        bits = gen.med_bits
        if len(bits) < 16:
            return
        length = bits_to_int(bits[:16])
        needed = 16 + 8 * length
        if len(bits) < needed:
            return
        message = bits_to_bytes(bits[16:needed])
        gen.med_bits = []
        self.inbox.append(("MED", message))
        self._new_messages.append(("MED", message))

    def _handle_high_completion(self, gen_idx: int, msg_id: int, version: int,
                                plaintext: bytes) -> None:
        gen = self.generations[gen_idx]
        if version == high.VERSION_DATA:
            self.inbox.append(("HIGH", plaintext))
            self._new_messages.append(("HIGH", plaintext))
            return
        if msg_id in gen.processed_control:
            return  # replay: no-op
        gen.processed_control.add(msg_id)
        if version == high.VERSION_ROTATE:
            if len(plaintext) != 64:
                raise AuthError("malformed rotation frame")
            k, y = plaintext[:32], int.from_bytes(plaintext[32:], "big")
            if gen_idx == len(self.generations) - 1:
                self.generations.append(
                    Generation(
                        km=KeyMaterial.from_private(k, y),
                        med_cfg_schedule=[(1, self.cfg)],
                    )
                )
        elif version == high.VERSION_CONFIG:
            try:
                frame = json.loads(plaintext.decode())
                new_cfg = medium.ChannelConfig.from_dict(frame["cfg"])
                from_med = int(frame["from_med"])
            except (ValueError, KeyError, TypeError, ValidationError) as exc:
                raise AuthError(f"malformed config frame: {exc}") from exc
            gen.med_cfg_schedule.append((from_med, new_cfg))
            self.cfg = new_cfg

    def detect_and_receive(self, ledger: Ledger) -> list[tuple[str, bytes]]:
        """Scan new blocks, decode matches, advance counters and cursor.

        Returns messages completed by this call, exactly once each.
        """
        self._new_messages: list[tuple[str, bytes]] = []
        tip = ledger.tip_height
        # Index the unscanned range once; the window fixpoint below then
        # probes the index instead of re-walking the chain every pass.
        chain_index = ledger.input_index(self.cursor)
        while True:
            candidates = self._window_candidates()
            matches = []
            for hit, digest in candidates.items():
                for tx in chain_index.get(digest, ()):
                    matches.append((hit, tx))
            progress = False
            for (gen_idx, channel, counter), tx in sorted(
                matches, key=lambda item: (item[0][0], item[0][2])
            ):
                gen = self.generations[gen_idx]
                if counter < gen.next_signal[channel]:
                    continue  # already processed in an earlier pass
                progress = True
                try:
                    if channel == "MED":
                        bits = medium.extract(tx, gen.km, gen.cfg_at(counter), counter)
                        gen.med_bits.extend(bits)
                        self._complete_med(gen)
                    else:
                        for msg_id, version, plaintext in gen.reassembler.feed_transaction(
                            tx, counter
                        ):
                            self._handle_high_completion(gen_idx, msg_id, version, plaintext)
                except (TagCorruption, AuthError, PermutationMismatch) as exc:
                    self.quarantine.append((tx.txid.hex(), str(exc)))
                    if channel == "MED":
                        gen.med_bits = []  # poisoned mid-message assembly
                gen.next_signal[channel] = counter + 1
            if not progress:
                break
        self.cursor = tip + 1
        messages = self._new_messages
        del self._new_messages
        return messages

    def drain_inbox(self) -> list[tuple[str, bytes]]:
        out, self.inbox = self.inbox, []
        return out

    # -- persistence -----------------------------------------------------------
    # Session file: 4-byte magic || u16 format version || JSON payload.

    def save(self, path) -> None:
        """Replace the session file atomically (see files.write_atomic)."""
        payload = json.dumps(self._to_dict()).encode()
        write_atomic(path, _MAGIC + struct.pack(">H", _FORMAT_VERSION) + payload)

    @classmethod
    def load(cls, path) -> "SessionState":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != _MAGIC:
            raise ValidationError("not a session file")
        try:
            (version,) = struct.unpack_from(">H", blob, 4)
            if version != _FORMAT_VERSION:
                raise ValidationError(f"unsupported session format {version}")
            return cls._from_dict(json.loads(blob[6:].decode()))
        except (struct.error, ValueError, KeyError, IndexError, TypeError,
                AttributeError) as exc:
            raise ValidationError(f"malformed session file: {exc!r}") from exc

    def _to_dict(self) -> dict:
        def km_dict(km: KeyMaterial) -> dict:
            return {
                "k": km.k.hex(),
                "y": km.y.to_bytes(32, "big").hex() if km.y is not None else None,
                "gy": ec.compress(km.gy).hex(),
            }

        gens = []
        for gen in self.generations:
            buffers = {
                str(mid): {
                    str(idx): {
                        "version": frag.version,
                        "total_len": frag.total_len,
                        "body": frag.body.hex(),
                        "counter": frag.counter,
                    }
                    for idx, frag in bucket.items()
                }
                for mid, bucket in gen.reassembler.buffers.items()
            }
            gens.append(
                {
                    "km": km_dict(gen.km),
                    "next_signal": gen.next_signal,
                    "next_grind": gen.next_grind,
                    "nonce_guard": {str(c): f.hex() for c, f in gen.high_nonce_guard.items()},
                    "processed_control": sorted(gen.processed_control),
                    "med_bits": "".join(map(str, gen.med_bits)),
                    "reassembly": buffers,
                    "cfg_schedule": [
                        [c, cfg.to_dict()] for c, cfg in gen.med_cfg_schedule
                    ],
                }
            )
        return {
            "cfg": self.cfg.to_dict(),
            "cursor": self.cursor,
            "rng_state": _rng_state_to_json(self.rng.getstate()),
            "next_msg_id": self.next_msg_id,
            "generations": gens,
            "inbox": [[ch, data.hex()] for ch, data in self.inbox],
            "quarantine": self.quarantine,
            "wallet": [
                [u.txid.hex(), u.vout, u.amount, u.generation, u.grind_counter]
                for u in self.wallet
            ],
            "embed_log": self.embed_log,
        }

    @classmethod
    def _from_dict(cls, data: dict) -> "SessionState":
        def km_from(d: dict) -> KeyMaterial:
            y = int.from_bytes(bytes.fromhex(d["y"]), "big") if d["y"] else None
            return KeyMaterial(
                k=bytes.fromhex(d["k"]), gy=ec.decompress(bytes.fromhex(d["gy"])), y=y
            )

        first = km_from(data["generations"][0]["km"])
        state = cls(first, medium.ChannelConfig.from_dict(data["cfg"]))
        state.generations = []
        for gd in data["generations"]:
            gen = Generation(
                km=km_from(gd["km"]),
                next_signal=dict(gd["next_signal"]),
                next_grind=gd["next_grind"],
                high_nonce_guard={int(c): bytes.fromhex(f) for c, f in gd["nonce_guard"].items()},
                processed_control=set(gd["processed_control"]),
                med_bits=[int(ch) for ch in gd["med_bits"]],
                med_cfg_schedule=[
                    (c, medium.ChannelConfig.from_dict(cd)) for c, cd in gd["cfg_schedule"]
                ],
            )
            for mid, bucket in gd["reassembly"].items():
                gen.reassembler.buffers[int(mid)] = {
                    int(idx): high._Fragment(
                        version=f["version"],
                        total_len=f["total_len"],
                        body=bytes.fromhex(f["body"]),
                        counter=f["counter"],
                    )
                    for idx, f in bucket.items()
                }
            state.generations.append(gen)
        state.cursor = data["cursor"]
        state.rng.setstate(_rng_state_from_json(data["rng_state"]))
        state.next_msg_id = data["next_msg_id"]
        state.inbox = [(ch, bytes.fromhex(h)) for ch, h in data["inbox"]]
        state.quarantine = [tuple(q) for q in data["quarantine"]]
        state.wallet = [
            WalletUtxo(bytes.fromhex(t), v, a, g, c)
            for t, v, a, g, c in data["wallet"]
        ]
        heapq.heapify(state.wallet)
        state.embed_log = [
            {**e, "entries": [tuple(pair) for pair in e["entries"]]}
            for e in data["embed_log"]
        ]
        return state


def _config_frame(from_med: int, cfg: medium.ChannelConfig) -> bytes:
    """Plaintext of a VERSION_CONFIG frame: JSON of the first MED counter
    the config applies from and cfg.to_dict().

    The frame format also holds three retired fields, at their original
    places and with fixed values: "address_version" after "grind_cap",
    then "debug_unmasked_tags" (false) and "high_kind" after
    "max_fields_per_tx". Receivers ignore them; they are kept because
    the frame is on the wire, so dropping them would change every config
    frame and every seeded chain that switches parameters.
    """
    entries = list(cfg.to_dict().items())
    entries.insert(5, ("address_version", 0))
    entries += [("debug_unmasked_tags", False), ("high_kind", 0)]
    return json.dumps({"from_med": from_med, "cfg": dict(entries)}).encode()


def _rng_state_to_json(state):
    version, internal, gauss = state
    return [version, list(internal), gauss]


def _rng_state_from_json(data):
    version, internal, gauss = data
    return (version, tuple(internal), gauss)
