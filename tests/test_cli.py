import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ld2
from ld2.cli import DEFAULT_SEED, MAX_N, CliError, _key_file_text, fitted_exponent, main, run_bench

SRC = str(Path(ld2.__file__).resolve().parent.parent)


def _keygen(tmp_path, n=5, seed="2a"):
    secret = tmp_path / "key.sec"
    public = tmp_path / "key.pub"
    argv = ["keygen", "--n", str(n), "--seed", seed,
            "--secret-out", str(secret), "--public-out", str(public)]
    assert main(argv) == 0
    return secret, public


def test_keygen_deterministic_files(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    s1, p1 = _keygen(d1, 5)
    s2, p2 = _keygen(d2, 5)
    assert s1.read_bytes() == s2.read_bytes()
    assert p1.read_bytes() == p2.read_bytes()


def test_keygen_warns_without_seed(tmp_path, capsys):
    argv = ["keygen", "--n", "3",
            "--secret-out", str(tmp_path / "k.sec"),
            "--public-out", str(tmp_path / "k.pub")]
    assert main(argv) == 0
    assert "insecure" in capsys.readouterr().err


def test_block_mode_round_trip(tmp_path, capsys):
    secret, public = _keygen(tmp_path, 9, seed="7")
    assert main(["encrypt", "--public", str(public), "--block", "2a01"]) == 0
    ciphertext = capsys.readouterr().out.strip()
    assert main(["decrypt", "--secret", str(secret), "--block", ciphertext]) == 0
    assert capsys.readouterr().out.strip() == "2a01"


def test_file_mode_round_trip(tmp_path):
    secret, public = _keygen(tmp_path, 9, seed="b0")
    data = random.Random(1).randbytes(300)
    plain = tmp_path / "msg.bin"
    plain.write_bytes(data)
    enc = tmp_path / "msg.enc"
    dec = tmp_path / "msg.dec"
    assert main(["encrypt", "--public", str(public),
                 "--in", str(plain), "--out", str(enc)]) == 0
    assert main(["decrypt", "--secret", str(secret),
                 "--in", str(enc), "--out", str(dec)]) == 0
    assert dec.read_bytes() == data


def test_decrypt_error_names_the_block(tmp_path, capsys):
    secret, public = _keygen(tmp_path, 9, seed="b1")
    plain = tmp_path / "msg.bin"
    plain.write_bytes(b"abc")  # three 2-byte ciphertext blocks
    enc = tmp_path / "msg.enc"
    assert main(["encrypt", "--public", str(public),
                 "--in", str(plain), "--out", str(enc)]) == 0
    data = bytearray(enc.read_bytes())
    data[5] |= 0x80  # a slack bit of block 2
    enc.write_bytes(bytes(data))
    capsys.readouterr()
    dec = tmp_path / "msg.dec"
    # --out is opened only after the message decrypts: absent, it is not
    # created, and a file already there keeps its bytes
    for old in (None, b"kept\r\n\xff"):
        if old is not None:
            dec.write_bytes(old)
        assert main(["decrypt", "--secret", str(secret),
                     "--in", str(enc), "--out", str(dec)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: block 2: nonzero slack bits in ciphertext block\n"
        assert dec.read_bytes() == old if old else not dec.exists()


def test_decrypt_padding_error_names_the_block(tmp_path, capsys):
    secret, public = _keygen(tmp_path, 9, seed="b2")
    assert main(["encrypt", "--public", str(public), "--block", "0000"]) == 0
    zero = bytes.fromhex(capsys.readouterr().out.strip())
    enc = tmp_path / "msg.enc"
    enc.write_bytes(zero * 3)  # three blocks that decrypt to 0: no padding marker
    dec = tmp_path / "msg.dec"
    for old in (None, b"kept\r\n\xff"):
        if old is not None:
            dec.write_bytes(old)
        assert main(["decrypt", "--secret", str(secret),
                     "--in", str(enc), "--out", str(dec)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: block 2: no padding marker found\n"
        assert dec.read_bytes() == old if old else not dec.exists()


def test_file_mode_round_trip_1kib_n33(tmp_path):
    secret, public = _keygen(tmp_path, 33, seed="c3")
    data = random.Random(2).randbytes(1024)
    plain = tmp_path / "big.bin"
    plain.write_bytes(data)
    enc = tmp_path / "big.enc"
    dec = tmp_path / "big.dec"
    assert main(["encrypt", "--public", str(public),
                 "--in", str(plain), "--out", str(enc)]) == 0
    assert main(["decrypt", "--secret", str(secret),
                 "--in", str(enc), "--out", str(dec)]) == 0
    assert dec.read_bytes() == data
    # 8193 padded bits at 33 bits per block, 5 bytes per ciphertext block
    assert len(enc.read_bytes()) == -(-8193 // 33) * 5


def test_sign_and_verify_exit_codes(tmp_path, capsys):
    secret, public = _keygen(tmp_path, 5, seed="5")
    assert main(["sign", "--secret", str(secret), "--digest", "15"]) == 0
    signature = capsys.readouterr().out.strip()
    assert main(["verify", "--public", str(public),
                 "--digest", "15", "--sig", signature]) == 0
    assert "valid" in capsys.readouterr().out
    bad = f"{int(signature, 16) ^ 1:02x}"
    assert main(["verify", "--public", str(public),
                 "--digest", "15", "--sig", bad]) == 2
    assert "invalid" in capsys.readouterr().out


def test_hex_errors_name_the_option(tmp_path, capsys):
    secret, public = _keygen(tmp_path, 5, seed="5")
    capsys.readouterr()
    cases = [
        (["verify", "--public", str(public), "--digest", "15", "--sig", "0102"],
         "--sig: byte string has the wrong length"),
        (["verify", "--public", str(public), "--digest", "zz", "--sig", "01"],
         "--digest: invalid hex string"),
        (["sign", "--secret", str(secret), "--digest", "1"],
         "--digest: invalid hex string"),
        (["encrypt", "--public", str(public), "--block", "20"],
         "--block: nonzero slack bits"),
        (["decrypt", "--secret", str(secret), "--block", "ff"],
         "--block: nonzero slack bits"),
    ]
    for argv, message in cases:
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message} (n = 5 takes 2 hex digits)\n"


def test_encrypt_with_a_singular_key_exits_one(tmp_path, capsys):
    # one flipped yl bit of equation 1 makes the system at x = 0 singular:
    # its y-matrix is the yl fields
    _, pk = ld2.keygen(5, 0x7A3)
    fields = [list(f) for f in pk.fields]
    fields[0][3] ^= 1 << 1
    public = tmp_path / "bad.pub"
    tampered = ld2.PublicKey(5, [ld2.QuadraticEquation(5, *f) for f in fields])
    public.write_text(ld2.encode_key(tampered), newline="")
    assert main(["encrypt", "--public", str(public), "--block", "00"]) == 1
    assert capsys.readouterr() == ("", "error: public key yields a singular system\n")


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["keygen"]) == 1  # missing required flags
    assert main(["encrypt", "--public", str(tmp_path / "nope.pub"),
                 "--block", "00"]) == 1  # missing file
    assert main(["frobnicate"]) == 1  # unknown subcommand
    secret, public = _keygen(tmp_path, 3, seed="1")
    capsys.readouterr()
    # both block and file mode at once
    assert main(["encrypt", "--public", str(public), "--block", "00",
                 "--in", "x", "--out", "y"]) == 1
    # secret where public expected, and public where secret expected
    assert main(["encrypt", "--public", str(secret), "--block", "00"]) == 1
    assert main(["sign", "--secret", str(public), "--digest", "00"]) == 1
    # bad seed
    assert main(["keygen", "--n", "3", "--seed", "zz",
                 "--secret-out", str(tmp_path / "sa"),
                 "--public-out", str(tmp_path / "sb")]) == 1
    # block size above the bound, rejected before any work
    assert main(["keygen", "--n", str(MAX_N + 2), "--seed", "1",
                 "--secret-out", str(tmp_path / "sa"),
                 "--public-out", str(tmp_path / "sb")]) == 1
    assert not (tmp_path / "sa").exists()
    # --out with --block, which prints the block: rejected, no file written
    for argv in (["encrypt", "--public", str(public)],
                 ["decrypt", "--secret", str(secret)]):
        assert main([*argv, "--block", "00", "--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()
    err = capsys.readouterr().err
    assert err.count("error:") == 7 and err.count("\n") == 7
    assert err.count("error: --out needs --in; --block prints to stdout\n") == 2
    assert f"error: {public} is not a secret key\n" in err
    assert f"at most {MAX_N}" in err


def test_one_process_keeps_each_call_apart(tmp_path, capsys):
    # the parser is built once per process; no call leaks into the next
    secret, _ = _keygen(tmp_path, 5, seed="5")
    capsys.readouterr()
    assert main(["sign", "--secret", str(secret)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "--digest" in err
    assert main(["sign", "--secret", str(secret), "--digest", "15"]) == 0
    out, err = capsys.readouterr()
    assert len(out) == 3 and out.endswith("\n") and err == ""
    assert main(["sign", "--secret", str(secret), "--digest", "zz"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --digest: invalid hex string (n = 5 takes 2 hex digits)\n"


def test_inspect_hides_secrets_by_default(tmp_path, capsys):
    secret, public = _keygen(tmp_path, 3, seed="1")
    capsys.readouterr()
    # both files name the key by the fingerprint of the public one
    header = (
        "n: 3\nm: 2\nmodulus: 0b\n"
        "fingerprint: 4a6d9aedd4c1be36e4200350a08b5afd0e1252c04889fa1f112b245cd7459f76\n"
    )
    assert main(["inspect", "--key", str(secret)]) == 0
    assert capsys.readouterr().out == (
        "type: secret\n" + header
        + "secret values hidden (pass --reveal to print them)\n"
        "size: 67 bytes\n"
    )
    assert main(["inspect", "--key", str(secret), "--reveal"]) == 0
    assert capsys.readouterr().out == (
        "type: secret\n" + header
        + "alpha: 07\nA1: 9301\nc1: 04\nA2: bb00\nc2: 04\n"
        "size: 67 bytes\n"
    )
    assert main(["inspect", "--key", str(public)]) == 0
    assert capsys.readouterr().out == (
        "type: public\n" + header
        + "equations: 3\nterms: 27\nsize: 180 bytes\n"
    )


def test_key_files_are_read_byte_for_byte(tmp_path, capsys):
    # no newline translation on either side: keygen writes encode_key's
    # text as it is, inspect's size is the file's byte count, and a copy
    # with \r\n or \r line ends is not the key
    secret, public = _keygen(tmp_path, 5, seed="5")
    assert public.read_bytes() == ld2.encode_key(ld2.keygen(5, 5)[1]).encode()
    assert main(["sign", "--secret", str(secret), "--digest", "15"]) == 0
    signature = capsys.readouterr().out.strip()
    for path in (secret, public):
        assert main(["inspect", "--key", str(path)]) == 0
        size = capsys.readouterr().out.splitlines()[-1]
        assert size == f"size: {path.stat().st_size} bytes"
    for end in (b"\r\n", b"\r"):
        copy = tmp_path / "copy.pub"
        copy.write_bytes(public.read_bytes().replace(b"\n", end))
        argv = ["verify", "--public", str(copy), "--digest", "15", "--sig", signature]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: line 1 is not in canonical form\n")


def test_a_long_key_file_is_read_as_it_is_on_disk(tmp_path):
    # at n = 65 a public key file is past 64 KiB; a \r\n past that point
    # still reaches decode_key untranslated
    _, public = _keygen(tmp_path, 65, seed="5")
    text = public.read_bytes()
    assert len(text) > 1 << 16
    assert _key_file_text(str(public)) == text.decode()
    copy = tmp_path / "copy.pub"
    copy.write_bytes(text[:70000] + b"\r\n" + text[70000:])
    assert _key_file_text(str(copy)) == (text[:70000] + b"\r\n" + text[70000:]).decode()
    # a byte that is not UTF-8 is reported at its offset in the file, and
    # the error names the file
    copy.write_bytes(text[:70000] + b"\xff" + text[70000:])
    with pytest.raises(CliError, match=f"^{re.escape(str(copy))}: 'utf-8' codec .* in position 70000:"):
        _key_file_text(str(copy))


def test_a_key_file_that_is_not_utf8_is_named_in_the_error(tmp_path, capsys):
    # verify, sign and inspect exit 1, and the diagnostic names the file
    # ahead of the decoder's message, which gives the bad byte's offset
    secret, public = _keygen(tmp_path, 5, seed="5")
    capsys.readouterr()
    bad_public, bad_secret = tmp_path / "bad.pub", tmp_path / "bad.sec"
    bad_public.write_bytes(b"\xff" + public.read_bytes())
    text = secret.read_bytes()
    bad_secret.write_bytes(text[:10] + b"\xff" + text[10:])
    reason = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"
    for argv, path, at in (
        (["verify", "--public", str(bad_public), "--digest", "15", "--sig", "15"], bad_public, 0),
        (["sign", "--secret", str(bad_secret), "--digest", "15"], bad_secret, 10),
        (["inspect", "--key", str(bad_public)], bad_public, 0),
        (["inspect", "--key", str(bad_secret)], bad_secret, 10),
    ):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {reason.format(at)}\n")


def test_key_files_are_utf8_under_an_ascii_locale(tmp_path):
    # the C locale with UTF-8 mode off makes ASCII the locale's encoding;
    # a fresh process there reports a bad byte as UTF-8's error, as under
    # the default locale, and keygen writes the same bytes
    ascii_locale = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
    public = _keygen(tmp_path, 5, seed="5")[1]
    bad = tmp_path / "bad.pub"
    bad.write_bytes(b"\xff" + public.read_bytes())
    verify = ["verify", "--public", str(bad), "--digest", "15", "--sig", "15"]
    line = f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    out = tmp_path / "c"
    out.mkdir()
    keygen = ["keygen", "--n", "5", "--seed", "5",
              "--secret-out", str(out / "key.sec"), "--public-out", str(out / "key.pub")]
    for env in (os.environ, ascii_locale):
        env = dict(env, PYTHONPATH=SRC)
        run = subprocess.run([sys.executable, "-m", "ld2", *verify], env=env,
                             capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == (1, "", line)
        subprocess.run([sys.executable, "-m", "ld2", *keygen], env=env, check=True)
        for name in ("key.sec", "key.pub"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("n", [33, 65])
def test_inspect_names_both_files_by_the_public_fingerprint(tmp_path, capsys, n):
    # a secret key's fingerprint is its public key's, and its output holds
    # none of its secret values (each at least 10 hex digits at these n)
    secret, public = _keygen(tmp_path, n, seed="5eed")
    capsys.readouterr()
    outputs = []
    for path in (public, secret):
        assert main(["inspect", "--key", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    lines = [out.splitlines() for out in outputs]
    prints = [[line for line in out if line.startswith("fingerprint: ")] for out in lines]
    assert prints[0] == prints[1] and len(prints[0]) == 1
    assert len(prints[0][0]) == len("fingerprint: ") + 64
    for line in secret.read_text().splitlines()[3:]:
        value = line.partition("=")[2]
        assert value not in outputs[1]


def test_inspect_hashes_the_public_text_it_read(tmp_path, capsys, monkeypatch):
    # decode_key accepts only encode_key's text, so inspect names a public
    # key by the text it read and encodes nothing
    import ld2.cli as cli_mod
    import ld2.keys as keys_mod

    _, public = _keygen(tmp_path, 33, seed="1f")
    text = public.read_text()
    expected = f"fingerprint: {ld2.fingerprint(ld2.decode_key(text))}"
    capsys.readouterr()

    def forbidden(*args):
        raise AssertionError("inspect of a public key must not encode it")

    for module in (keys_mod, cli_mod):
        monkeypatch.setattr(module, "encode_key", forbidden)
    monkeypatch.setattr(keys_mod, "_key_text", forbidden)
    assert main(["inspect", "--key", str(public)]) == 0
    assert expected in capsys.readouterr().out.splitlines()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: PASS" in out
    assert out.count("= 0") == 3  # the three recovered equations


def test_bench_report(capsys):
    results = run_bench([5, 9], reps=3, seed=DEFAULT_SEED)
    assert [r["n"] for r in results] == [5, 9]
    assert all(r["encrypt"] > 0 and r["decrypt"] > 0 for r in results)
    assert isinstance(fitted_exponent(results), float)
    assert main(["bench", "--n-list", "5,9", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "encrypt-time growth fits" in out


def test_bench_rejects_bad_args(capsys, monkeypatch):
    assert main(["bench", "--n-list", "x"]) == 1
    assert main(["bench", "--n-list", ""]) == 1
    assert main(["bench", "--n-list", "5", "--reps", "0"]) == 1
    capsys.readouterr()

    def no_run(*args, **kwargs):
        raise AssertionError("run_bench called with a bad size")

    # every size is checked before the sizes ahead of it run
    monkeypatch.setattr("ld2.cli.run_bench", no_run)
    assert main(["bench", "--n-list", f"5,{MAX_N + 2}"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1 and err.count("\n") == 1
    assert f"at most {MAX_N}" in err
    assert main(["bench", "--n-list", "65,4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "got 4" in err
    # sizes must be distinct: with every size equal, the growth fit would
    # divide by zero
    for sizes in ("5,5", "5,9,5"):
        assert main(["bench", "--n-list", sizes]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1 and err.count("\n") == 1
        assert "repeat" in err


def test_import_leaves_typing_unloaded():
    # typing and pathlib each take a few ms of a fresh process's import; -S
    # keeps out site hooks, which may import them on their own
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import ld2.cli;"
            " print('typing' in sys.modules, 'pathlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False False\n"
