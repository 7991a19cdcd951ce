"""Tokenizer, text/patch embedding, and language reduction."""

import numpy as np
import pytest

from vltrack import embedders as emb
from vltrack import numcore as nc
from vltrack.embedders import CLS_ID, PAD_ID, UNK_ID, TokenizedPrompt, Vocab
from vltrack.config import Config
from vltrack.errors import ConfigurationError, ContractError, ShapeMismatchError, VocabularyError
from vltrack.model import TrackerModel
from vltrack.numcore import Tensor


@pytest.fixture
def vocab():
    return Vocab(("red", "circle", "moving", "left"))


class TestVocab:
    def test_reserved_ids_never_collide(self, vocab):
        assert vocab.id_of("red") == 3
        assert vocab.id_of("left") == 6
        assert vocab.size == 7

    def test_unknown_maps_to_unk(self, vocab):
        assert vocab.id_of("xyzzy") == UNK_ID

    def test_file_roundtrip(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("".join(word + "\n" for word in vocab.words), encoding="utf-8")
        again = Vocab.load(path)
        assert again == vocab
        # one token per line, line number = id - 3
        lines = path.read_text().splitlines()
        assert lines[vocab.id_of("circle") - 3] == "circle"

    def test_rejects_duplicates_and_uppercase(self):
        with pytest.raises(ConfigurationError):
            Vocab(("red", "red"))
        with pytest.raises(ConfigurationError):
            Vocab(("Red",))


class TestTokenize:
    def test_empty_prompt(self, vocab):
        tp = emb.tokenize("", vocab, 4)
        assert tp.ids == (CLS_ID, PAD_ID, PAD_ID, PAD_ID)
        assert tp.mask == (1, 0, 0, 0)

    def test_known_words(self, vocab):
        tp = emb.tokenize("Red circle", vocab, 4)
        assert tp.ids == (CLS_ID, 3, 4, PAD_ID)
        assert tp.mask == (1, 1, 1, 0)

    def test_unknown_word(self, vocab):
        tp = emb.tokenize("xyzzy", vocab, 4)
        assert tp.ids == (CLS_ID, UNK_ID, PAD_ID, PAD_ID)

    def test_punctuation_and_case(self, vocab):
        tp = emb.tokenize("RED, circle!!", vocab, 4)
        assert tp.ids == (CLS_ID, 3, 4, PAD_ID)

    def test_truncation(self, vocab):
        tp = emb.tokenize("red circle moving left", vocab, 3)
        assert tp.ids == (CLS_ID, 3, 4)
        assert tp.mask == (1, 1, 1)

    def test_min_length(self, vocab):
        with pytest.raises(ContractError):
            emb.tokenize("red", vocab, 1)

    def test_idempotent_modulo_case_and_punctuation(self, vocab):
        tp = emb.tokenize("Red circle, moving LEFT", vocab, 8)
        text = " ".join(vocab.words[i - emb.RESERVED] for i, m in zip(tp.ids, tp.mask) if m and i != CLS_ID)
        assert emb.tokenize(text, vocab, 8) == tp


def embed_prompt(model, tp):
    """The model's text tokens for one prompt, through ``embed_inputs``."""
    cfg = model.cfg
    search = np.zeros((1, 3, cfg.search_size, cfg.search_size), dtype=np.float32)
    template = np.zeros((1, 3, cfg.template_size, cfg.template_size), dtype=np.float32)
    return model.embed_inputs(search, template, [tp.ids])[2]


class TestEmbedText:
    def test_all_pad_with_zero_table(self, vocab):
        tp = TokenizedPrompt((CLS_ID, PAD_ID, PAD_ID), (1, 0, 0))
        table = Tensor(np.zeros((vocab.size, 5), dtype=np.float32))
        out = nc.take_rows(table, [tp.ids])
        np.testing.assert_array_equal(out.data[0], 0.0)

    def test_one_hot_table_gives_indicator_rows(self, vocab):
        table = Tensor(np.eye(vocab.size, dtype=np.float32))
        tp = emb.tokenize("red circle", vocab, 4)
        out = nc.take_rows(table, [tp.ids])
        for row, token_id in zip(out.data[0], tp.ids):
            assert row[token_id] == 1.0 and row.sum() == 1.0

    def test_matches_direct_indexing_oracle(self, vocab):
        model = TrackerModel(Config(), vocab)
        rng = np.random.default_rng(0)
        table_np = rng.normal(size=(vocab.size, model.cfg.dim)).astype(np.float32)
        model.text_table.data = table_np
        tp = emb.tokenize("red moving xyzzy", vocab, 5)
        out = embed_prompt(model, tp)
        for k, token_id in enumerate(tp.ids):
            np.testing.assert_array_equal(out.data[0, k], table_np[token_id])

    @pytest.mark.parametrize("bad_id", [lambda v: v.size, lambda v: -1], ids=["past-end", "negative"])
    def test_id_out_of_range(self, vocab, bad_id):
        tp = TokenizedPrompt((CLS_ID, bad_id(vocab)), (1, 1))
        with pytest.raises(VocabularyError):
            embed_prompt(TrackerModel(Config(), vocab), tp)


class TestPatchEmbed:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.proj = Tensor(rng.normal(size=(192, 12)).astype(np.float32))
        self.pos = Tensor(rng.normal(size=(16, 12)).astype(np.float32))

    def test_token_count(self):
        img = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        out = emb.patch_embed(img, 8, self.proj, self.pos)
        assert out.shape == (1, 16, 12)

    def test_zero_image_zero_pos(self):
        img = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        zero_pos = Tensor(np.zeros((16, 12), dtype=np.float32))
        out = emb.patch_embed(img, 8, self.proj, zero_pos)
        np.testing.assert_array_equal(out.data[0], 0.0)

    def test_matches_per_patch_loop_oracle(self):
        rng = np.random.default_rng(2)
        img_np = rng.uniform(0, 1, (3, 32, 32)).astype(np.float32)
        out = emb.patch_embed(Tensor(img_np[None]), 8, self.proj, self.pos)
        grid = 32 // 8
        for k in range(16):
            gi, gj = divmod(k, grid)
            patch = img_np[:, gi * 8 : (gi + 1) * 8, gj * 8 : (gj + 1) * 8].reshape(-1)
            expect = patch.astype(np.float64) @ self.proj.data.astype(np.float64) + self.pos.data[k]
            np.testing.assert_allclose(out.data[0, k], expect, atol=1e-4)

    def test_superposition(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (3, 32, 32)).astype(np.float32)
        y = rng.uniform(-1, 1, (3, 32, 32)).astype(np.float32)
        zero_pos = Tensor(np.zeros((16, 12), dtype=np.float32))
        fx = emb.patch_embed(Tensor(x[None]), 8, self.proj, zero_pos).data[0]
        fy = emb.patch_embed(Tensor(y[None]), 8, self.proj, zero_pos).data[0]
        fxy = emb.patch_embed(Tensor((x + y)[None]), 8, self.proj, zero_pos).data[0]
        np.testing.assert_allclose(fxy, fx + fy, atol=1e-4)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(4)
        imgs = rng.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32)
        batched = emb.patch_embed(Tensor(imgs), 8, self.proj, self.pos)
        for b in range(2):
            single = emb.patch_embed(Tensor(imgs[b][None]), 8, self.proj, self.pos)
            np.testing.assert_array_equal(batched.data[b], single.data[0])

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigurationError):
            emb.patch_embed(Tensor(np.zeros((1, 3, 30, 32), dtype=np.float32)), 8, self.proj, self.pos)

    def test_table_shapes_checked(self):
        img = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        with pytest.raises(ConfigurationError):
            emb.patch_embed(img, 4, self.proj, self.pos)  # proj rows are 3 * 8 * 8
        with pytest.raises(ConfigurationError):
            emb.patch_embed(img, 8, self.proj, Tensor(np.zeros((64, 12), dtype=np.float32)))

    def test_unbatched_image_rejected(self):
        with pytest.raises(ShapeMismatchError):
            emb.patch_embed(Tensor(np.zeros((3, 32, 32), dtype=np.float32)), 8, self.proj, self.pos)

    def test_desk_grid_arithmetic(self, vocab):
        model = TrackerModel(Config(), vocab)
        assert model.pos_search.shape == (64, 96) and model.pos_template.shape == (16, 96)


class TestReduceLanguage:
    def test_identical_rows_mean_is_that_row(self):
        tokens = Tensor(np.tile([1.0, 2.0, 3.0], (1, 4, 1)).astype(np.float32))
        out = emb.reduce_language(tokens, [[1, 1, 1, 1]])
        np.testing.assert_allclose(out.data[0], [1.0, 2.0, 3.0], atol=1e-6)

    def test_hand_average(self):
        tokens = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]], dtype=np.float32))
        out = emb.reduce_language(tokens, [[1, 1]])
        np.testing.assert_allclose(out.data[0], [0.5, 0.5])

    def test_mask_excludes_padded_rows(self):
        tokens = Tensor(np.array([[[2.0], [4.0], [100.0]]], dtype=np.float32))
        out = emb.reduce_language(tokens, [[1, 1, 0]])
        np.testing.assert_allclose(out.data[0], [3.0])

    def test_all_zero_mask_rejected(self):
        tokens = Tensor(np.ones((1, 3, 2), dtype=np.float32))
        with pytest.raises(ContractError):
            emb.reduce_language(tokens, [[0, 0, 0]])

    def test_permutation_invariance_over_non_cls_rows(self):
        rng = np.random.default_rng(6)
        tokens_np = rng.normal(size=(5, 4)).astype(np.float32)
        permuted = tokens_np.copy()
        permuted[1:] = permuted[[3, 1, 4, 2]]
        a = emb.reduce_language(Tensor(tokens_np[None]), [[1] * 5]).data[0]
        b = emb.reduce_language(Tensor(permuted[None]), [[1] * 5]).data[0]
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_batched(self):
        rng = np.random.default_rng(7)
        tokens = Tensor(rng.normal(size=(2, 4, 3)).astype(np.float32))
        mask = np.array([[1, 1, 0, 0], [1, 1, 1, 0]])
        out = emb.reduce_language(tokens, mask)
        single0 = emb.reduce_language(Tensor(tokens.data[:1]), mask[:1])
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data[0], single0.data[0], atol=1e-6)

    def test_gradient_flows_to_table(self, vocab):
        table = Tensor(np.random.default_rng(8).normal(size=(vocab.size, 4)).astype(np.float32), requires_grad=True)
        tp = emb.tokenize("red circle", vocab, 4)
        with nc.Tape() as tape:
            tokens = nc.take_rows(table, [tp.ids])
            red = emb.reduce_language(tokens, [tp.mask])
            tape.backward(nc.tensor_sum(red * red))
        assert table.grad is not None and np.any(table.grad != 0)
