"""An OCI-compliant container registry (blobs + manifests + tags).

"A container registry is important to leverage in this workflow as it
provides persistence to container images which could help in portability,
debugging with old versions, or general future reproducibility" (paper
§4.2) — so the registry keeps every manifest it has ever seen, supports
content-addressed blob dedup, and tracks transfer statistics for the layer
benchmarks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..archive import TarArchive, TarMember
from ..cas.store import CasError, ContentStore
from ..errors import RegistryError
from ..obs.trace import maybe_span
from .oci import ImageConfig, ImageRef, Manifest

__all__ = ["Registry", "TransferStats"]


@dataclass
class TransferStats:
    """Bytes and blob counts moved over the wire."""

    blobs_pushed: int = 0
    blobs_push_skipped: int = 0  # dedup hits: layer already present
    bytes_pushed: int = 0
    bytes_push_skipped: int = 0  # bytes the dedup saved on the wire
    blobs_pulled: int = 0
    bytes_pulled: int = 0
    blobs_pull_skipped: int = 0  # puller already held the blob locally
    bytes_pull_skipped: int = 0  # egress bytes the local CAS saved

    def as_dict(self) -> dict:
        return {
            "blobs_pushed": self.blobs_pushed,
            "blobs_push_skipped": self.blobs_push_skipped,
            "bytes_pushed": self.bytes_pushed,
            "bytes_push_skipped": self.bytes_push_skipped,
            "blobs_pulled": self.blobs_pulled,
            "bytes_pulled": self.bytes_pulled,
            "blobs_pull_skipped": self.blobs_pull_skipped,
            "bytes_pull_skipped": self.bytes_pull_skipped,
        }


def as_ref(ref: ImageRef | str) -> ImageRef:
    return ImageRef.parse(ref) if isinstance(ref, str) else ref


class Registry:
    """One registry service (e.g. the GitLab Container Registry of §4.2).

    Blob bytes live in a :class:`~repro.cas.ContentStore`; passing a
    shared store to several registries (or to storage drivers) dedups
    identical layers across images, repositories, and services.  Every
    blob this registry accepts is refcounted so a bounded shared store
    can never evict it — registry persistence is the §4.2 property.

    This class is also the front door of a sharded
    :class:`~repro.cluster.fleet.RegistryFleet`: ref parsing, spans,
    fault injection, sign-on-push, verify-on-pull, the §6.2.5 policy,
    transfer accounting, and every metadata table live here once.  A
    fleet overrides only the blob plane — :meth:`_put_blobs`,
    :meth:`_get_blob`, :meth:`has_blob`, :meth:`blob_size`,
    :meth:`blob_at_rest`, :meth:`storage_bytes`, :meth:`route_blob`,
    :meth:`endpoints` — and wraps the shared ``_push``/``_pull``/
    ``_push_cache``/``_pull_cache`` bodies in tenant auth.
    """

    def __init__(self, name: str, *, store: Optional[ContentStore] = None,
                 tracer=None):
        self.name = name
        self.store = store if store is not None else ContentStore()
        self._owned: set[str] = set()  # digests this registry references
        # (repo, tag) -> arch -> Manifest  (a minimal OCI manifest list)
        self._manifests: dict[tuple[str, str], dict[str, Manifest]] = {}
        self._manifest_log: list[tuple[str, str, str]] = []  # persistence
        # (repo, tag) -> cache-manifest blob digest (BuildKit-style)
        self._cache_manifests: dict[tuple[str, str], str] = {}
        self._policies: dict[str, bool] = {}  # repo -> require_flattened
        # (repo, tag) -> detached signatures (one per signed manifest
        # variant; verification matches on the served manifest's digest)
        self._signatures: dict[tuple[str, str], list] = {}
        # (repo, tag) -> attestation kind -> blob digest
        self._attestations: dict[tuple[str, str], dict[str, str]] = {}
        self.stats = TransferStats()
        #: Optional :class:`~repro.supply.Signer` — when set, every push
        #: records a signature over the manifest digest (sign-on-push).
        self.signer = None
        #: Optional :class:`~repro.supply.PolicyGate` — when set, every
        #: pull verifies the served manifest's signature and raises
        #: :class:`~repro.errors.SupplyPolicyError` on failure.
        self.policy_gate = None
        #: Optional :class:`~repro.obs.SyscallTracer` — registries have no
        #: kernel of their own, so callers attach one explicitly to get
        #: push/pull spans.
        self.tracer = tracer
        #: Optional :class:`~repro.sim.RegistryFaultInjector` — when set,
        #: ``fetch_blob``/``push`` raise ``TransientRegistryError`` inside
        #: the plan's flake windows and callers retry per their policy.
        self.fault_injector = None
        #: layer digest -> decoded members: each layer blob is decoded
        #: once, however many nodes pull it (:meth:`_decode`)
        self._decoded: dict[str, tuple[TarMember, ...]] = {}

    # -- blob plumbing --------------------------------------------------------------

    def has_blob(self, digest: str) -> bool:
        return self.store.has(digest)

    def _put_blob(self, blob: bytes) -> str:
        hits = self.store.stats.dedup_hits
        digest = self.store.put(blob)
        if self.store.stats.dedup_hits > hits:
            # dedup hit: the bytes are already at rest (possibly pushed to
            # another repo, or another registry on a shared store)
            self.stats.blobs_push_skipped += 1
            self.stats.bytes_push_skipped += len(blob)
        else:  # new bytes, or a rotten copy at rest replaced by them
            self.stats.blobs_pushed += 1
            self.stats.bytes_pushed += len(blob)
        if digest not in self._owned:
            self._owned.add(digest)
            self.store.incref(digest)
        return digest

    def _put_blobs(self, ref: Optional[ImageRef],
                   blobs: list[bytes]) -> list[str]:
        """Accept the blobs of one push request for *ref* (None: a raw
        :meth:`put_blob`); returns their digests.  (A fleet places them
        on its ring instead.)"""
        return [self._put_blob(blob) for blob in blobs]

    def _read(self, store: ContentStore, digest: str) -> bytes:
        """*digest*'s verified bytes from *store*, or a RegistryError."""
        try:
            return store.get(digest)
        except CasError as err:
            raise RegistryError(f"{self.name}: {err}") from None

    def _get_blob(self, digest: str) -> bytes:
        """One blob off the store for the wire (a fleet's shard serves)."""
        blob = self._read(self.store, digest)
        self.stats.blobs_pulled += 1
        self.stats.bytes_pulled += len(blob)
        return blob

    def fetch_blob(self, digest: str, *,
                   local_store: Optional[ContentStore] = None) -> bytes:
        """Pull one blob by digest.  If the caller's node-local
        *local_store* already holds the bytes, they are served from there
        and the wire transfer is skipped (counted as a pull-skip — the
        mirror of push-side dedup).  Either store's ``get`` verifies the
        bytes (:meth:`_read`).  A freshly pulled blob is dropped into
        *local_store* so the next puller on that node skips too."""
        return self._fetch(digest, local_store)

    def _fetch(self, digest: str,
               local_store: Optional[ContentStore]) -> bytes:
        if local_store is not None and local_store.has(digest):
            blob = self._read(local_store, digest)
            self.stats.blobs_pull_skipped += 1
            self.stats.bytes_pull_skipped += len(blob)
            return blob
        if self.fault_injector is not None:
            self.fault_injector.check("fetch_blob")
        blob = self._get_blob(digest)
        if local_store is not None:
            local_store.put(blob)
        return blob

    def blob_size(self, digest: str) -> int:
        """Size at rest of one blob (no transfer is counted)."""
        if not self.store.has(digest):
            raise RegistryError(f"{self.name}: no blob {digest[:19]}...")
        return self.store.size_of(digest)

    def blob_at_rest(self, digest: str) -> bytes:
        """One blob's bytes without counting a transfer (audit-side
        reads; clients fetching over the wire use :meth:`fetch_blob`)."""
        return self._read(self.store, digest)

    def storage_bytes(self) -> int:
        """Bytes at rest attributable to this registry's blobs.  On a
        shared store the sum over registries can exceed the store's
        physical size — that gap *is* the cross-service dedup saving."""
        return sum(self.store.size_of(d) for d in self._owned
                   if self.store.has(d))

    # -- deploy routing ------------------------------------------------------------

    def route_blob(self, digest: str) -> "Registry":
        """The endpoint that serves *digest* to a deploy distributor: a
        single registry is its own origin."""
        return self

    def endpoints(self) -> list:
        """Every endpoint serving blobs — one uplink each, named after
        the endpoint, on a deploy topology."""
        return [self]

    # -- shard primitives: the blob plane of one fleet shard --------------------------

    def put_blob(self, blob: bytes) -> str:
        """Accept one raw blob outside any image push: a fleet shard
        receiving its placement, or a converted single-file image a
        deploy distributes.  Counted like a layer push, dedup included;
        a fleet places it on its ring, charging no tenant."""
        return self._put_blobs(None, [blob])[0]

    def adopt_blob(self, digest: str) -> None:
        """Register an already-resident blob as owned — the peer-to-peer
        replica/rebalance fill path, whose bytes arrive via the broadcast
        fabric and are accounted there, so *no* transfer is counted here
        (the zero-double-counting invariant)."""
        if not self.store.has(digest):
            raise RegistryError(
                f"{self.name}: cannot adopt absent blob {digest[:19]}...")
        if digest not in self._owned:
            self._owned.add(digest)
            self.store.incref(digest)

    def drop_blob(self, digest: str) -> bool:
        """Release ownership of one blob (rebalanced away); the bytes are
        reclaimed unless another owner on a shared store still holds a
        reference.  Returns whether the bytes were removed."""
        if digest not in self._owned:
            return False
        self._owned.discard(digest)
        self.store.decref(digest)
        return self.store.discard(digest)

    # -- supply-chain metadata: signatures + attestations --------------------------------

    def record_signature(self, ref: ImageRef | str, signature) -> None:
        """Attach a detached signature to *ref* (sign-on-push).
        Signatures accumulate — one per signed manifest variant;
        verification matches on payload."""
        ref = as_ref(ref)
        sigs = self._signatures.setdefault((ref.repository, ref.tag), [])
        if signature not in sigs:
            sigs.append(signature)

    def signatures_of(self, ref: ImageRef | str) -> list:
        """Every signature recorded for *ref* (may be empty)."""
        ref = as_ref(ref)
        return list(self._signatures.get((ref.repository, ref.tag), ()))

    def attestation_digests(self, ref: ImageRef | str) -> dict[str, str]:
        """kind -> blob digest of every attestation on *ref*."""
        ref = as_ref(ref)
        return dict(self._attestations.get((ref.repository, ref.tag), {}))

    def fetch_attestation(self, ref: ImageRef | str, kind: str) -> bytes:
        """One attestation statement, read at rest (no transfer counted
        — audits run registry-side, not over the wire)."""
        ref = as_ref(ref)
        digests = self._attestations.get((ref.repository, ref.tag), {})
        if kind not in digests:
            raise RegistryError(
                f"{self.name}: no {kind} attestation for "
                f"{ref.repository}:{ref.tag}")
        return self.blob_at_rest(digests[kind])

    def _count(self, event: str) -> None:
        if self.tracer is not None:
            self.tracer.metrics.counters.count(f"supply.{event}")

    def _verify_served(self, ref: ImageRef, manifest: Manifest) -> None:
        """The pull-time supply check: count unsigned pulls, and when a
        policy gate is attached, verify the served manifest's signature
        (raising :class:`~repro.errors.SupplyPolicyError`)."""
        if not self._signatures.get((ref.repository, ref.tag)):
            self._count("unsigned_pull")
        if self.policy_gate is not None:
            self.policy_gate.verify_pull(self, ref, manifest)

    # -- ownership policy (§6.2.5 proposed OCI extension) -------------------------------

    def set_repo_policy(self, repository: str, *,
                        require_flattened: bool) -> None:
        """§6.2.5: 'explicit marking of images to disallow, allow, or
        require them to be ownership-flattened' — enforced per repository."""
        self._policies[repository] = require_flattened

    def _check_policy(self, ref: ImageRef,
                      layers: list[TarArchive]) -> None:
        if not self._policies.get(ref.repository, False):
            return
        for layer in layers:
            for m in layer:
                if (m.uid, m.gid) != (0, 0) or m.mode & 0o6000:
                    raise RegistryError(
                        f"{self.name}: repository {ref.repository!r} "
                        f"requires ownership-flattened images; member "
                        f"{m.path!r} is {m.uid}:{m.gid} mode {m.mode:o}")

    # -- push / pull ------------------------------------------------------------------

    def push(self, ref: ImageRef | str, config: ImageConfig,
             layers: Iterable[TarArchive], *,
             attestations: Optional[dict[str, bytes]] = None) -> Manifest:
        """Push an image: layers become content-addressed blobs (already-
        present layers are not re-sent, like real registries).  With
        *attestations* (kind -> statement bytes), the statements become
        blobs of the same request, recorded under *ref*."""
        return self._push(as_ref(ref), config, list(layers), attestations)

    def _push(self, ref: ImageRef, config: ImageConfig,
              layers: list[TarArchive],
              attestations: Optional[dict[str, bytes]]) -> Manifest:
        with maybe_span(self.tracer,
                        f"push {ref.repository}:{ref.tag}", "push",
                        registry=self.name, layers=len(layers)):
            if self.fault_injector is not None:
                self.fault_injector.check("push")
            self._check_policy(ref, layers)
            blobs = [layer.serialize() for layer in layers]
            if not blobs:
                raise RegistryError("cannot push an image with no layers")
            kinds = sorted(attestations or {})
            digests = self._put_blobs(
                ref, blobs + [attestations[kind] for kind in kinds])
            manifest = Manifest(config=config,
                                layers=tuple(digests[:len(blobs)]))
            key = (ref.repository, ref.tag)
            self._manifests.setdefault(key, {})[config.arch] = manifest
            self._manifest_log.append((*key, manifest.digest()))
            if self.signer is not None:
                self.record_signature(ref,
                                      self.signer.sign(manifest.digest()))
                self._count("signed")
            if kinds:
                self._attestations.setdefault(key, {}).update(
                    zip(kinds, digests[len(blobs):]))
                self._count("attested")
        return manifest

    def pull(self, ref: ImageRef | str, *, arch: Optional[str] = None,
             local_store: Optional[ContentStore] = None
             ) -> tuple[ImageConfig, list[TarArchive]]:
        """Pull an image (optionally a specific architecture variant);
        returns (config, layers base-first).  With *local_store* (the
        pulling node's CAS), layer blobs already held locally are not
        re-sent over the wire — the pull-side mirror of push dedup."""
        return self._pull(as_ref(ref), arch, local_store)

    def _pull(self, ref: ImageRef, arch: Optional[str],
              local_store: Optional[ContentStore]
              ) -> tuple[ImageConfig, list[TarArchive]]:
        with maybe_span(self.tracer,
                        f"pull {ref.repository}:{ref.tag}", "pull",
                        registry=self.name):
            manifest = self.manifest(ref, arch=arch)
            self._verify_served(ref, manifest)
            layers = [
                self._decode(d, self.fetch_blob(d, local_store=local_store))
                for d in manifest.layers]
        return manifest.config, layers

    def _decode(self, digest: str, blob: bytes) -> TarArchive:
        """The layer archive in *blob*, fetched as *digest* from a store
        that checked the bytes against it, so the members are decoded
        once per digest.  Each call returns a fresh archive.  A miss
        first drops the entries of blobs this registry no longer holds."""
        if digest not in self._decoded:
            for gone in [d for d in self._decoded if not self.has_blob(d)]:
                del self._decoded[gone]
            self._decoded[digest] = tuple(TarArchive.deserialize(blob))
        return TarArchive(self._decoded[digest])

    def image_blob_digests(self, ref: ImageRef | str, *,
                           arch: Optional[str] = None) -> list[str]:
        """The layer blob digests an image pull would transfer, base
        first — what a deploy distributor needs to plan with."""
        return list(self.manifest(ref, arch=arch).layers)

    def manifest_variants(self, ref: ImageRef | str) -> dict[str, Manifest]:
        """All architecture variants recorded for *ref* (may be empty)."""
        ref = as_ref(ref)
        return dict(self._manifests.get((ref.repository, ref.tag), {}))

    def manifest(self, ref: ImageRef | str, *,
                 arch: Optional[str] = None) -> Manifest:
        ref = as_ref(ref)
        try:
            variants = self._manifests[(ref.repository, ref.tag)]
        except KeyError:
            raise RegistryError(
                f"{self.name}: manifest unknown: {ref.repository}:{ref.tag}")
        if arch is not None:
            if arch in variants:
                return variants[arch]
            if len(variants) == 1:
                # single-arch manifest: served regardless of the requested
                # platform (real clients warn and proceed — the mismatch
                # surfaces later as ENOEXEC, the §4.2 laptop trap)
                return next(iter(variants.values()))
            raise RegistryError(
                f"{self.name}: {ref.repository}:{ref.tag} has no "
                f"{arch} variant (available: {sorted(variants)})")
        if len(variants) == 1:
            return next(iter(variants.values()))
        raise RegistryError(
            f"{self.name}: {ref.repository}:{ref.tag} is multi-arch "
            f"({sorted(variants)}); specify an architecture")

    # -- build-cache manifests (BuildKit-style cache export) ---------------------------

    def push_cache(self, ref: ImageRef | str, manifest: bytes,
                   blobs: Iterable[bytes]) -> str:
        """Accept a build-cache export: the diff blobs plus the JSON cache
        manifest naming them, tracked under *ref* like an OCI artifact.
        Already-present blobs are deduplicated like layers; returns the
        manifest blob digest."""
        return self._push_cache(as_ref(ref), manifest, list(blobs))

    def _push_cache(self, ref: ImageRef, manifest: bytes,
                    blobs: list[bytes]) -> str:
        with maybe_span(self.tracer,
                        f"push-cache {ref.repository}:{ref.tag}", "push",
                        registry=self.name, blobs=len(blobs)):
            digest = self._put_blobs(ref, blobs + [manifest])[-1]
            self._cache_manifests[(ref.repository, ref.tag)] = digest
        return digest

    def pull_cache(self, ref: ImageRef | str, *,
                   local_store: Optional[ContentStore] = None
                   ) -> tuple[bytes, Callable[[str], bytes]]:
        """Fetch a cache manifest pushed by :meth:`push_cache`; returns
        ``(manifest_bytes, fetch)`` where *fetch* retrieves diff blobs by
        digest (and counts them as pulled, or as pull-skips when
        *local_store* already holds them)."""
        return self._pull_cache(as_ref(ref), local_store)

    def _pull_cache(self, ref: ImageRef,
                    local_store: Optional[ContentStore]
                    ) -> tuple[bytes, Callable[[str], bytes]]:
        digest = self._cache_digest(ref)
        with maybe_span(self.tracer,
                        f"pull-cache {ref.repository}:{ref.tag}", "pull",
                        registry=self.name):
            manifest = self.fetch_blob(digest, local_store=local_store)

        def fetch(d: str) -> bytes:
            return self.fetch_blob(d, local_store=local_store)

        return manifest, fetch

    def _cache_digest(self, ref: ImageRef) -> str:
        try:
            return self._cache_manifests[(ref.repository, ref.tag)]
        except KeyError:
            raise RegistryError(
                f"{self.name}: cache manifest unknown: "
                f"{ref.repository}:{ref.tag}")

    def cache_blob_digests(self, ref: ImageRef | str) -> list[str]:
        """Every blob a cache import of *ref* would transfer: the diff
        blobs the manifest names, then the manifest blob itself (no
        transfer is counted — this is planning data for a distributor)."""
        digest = self._cache_digest(as_ref(ref))
        manifest = json.loads(self.blob_at_rest(digest))
        diffs = [entry["diff"] for entry in manifest.get("records", ())]
        # preserve first-seen order, dedup (records may share diffs)
        seen: set[str] = set()
        ordered = [d for d in diffs if not (d in seen or seen.add(d))]
        return ordered + [digest]

    def has_cache(self, ref: ImageRef | str) -> bool:
        ref = as_ref(ref)
        return (ref.repository, ref.tag) in self._cache_manifests

    def has(self, ref: ImageRef | str) -> bool:
        ref = as_ref(ref)
        return (ref.repository, ref.tag) in self._manifests

    def tags(self, repository: str) -> list[str]:
        return sorted(t for (r, t) in self._manifests if r == repository)

    def repositories(self) -> list[str]:
        return sorted({r for (r, _) in self._manifests})

    def history(self, repository: str) -> list[str]:
        """All manifest digests ever pushed to *repository* (old versions
        stay reachable — the §4.2 persistence property)."""
        return [d for (r, _, d) in self._manifest_log if r == repository]
