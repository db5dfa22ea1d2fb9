import xml.etree.ElementTree as ET

import pytest

from sawalk.render import ascii_conformation, svg_conformation


class TestAscii:
    def test_known_optimum_annotation(self):
        text = ascii_conformation("1001001001", "211011011")
        assert "energy -4" in text
        assert "weight 4" in text
        assert text.count("#") == 4
        assert text.count("o") == 6

    def test_contacts_marked(self):
        text = ascii_conformation("1001001001", "211011011")
        assert text.count("*") + text.count(":") == 4

    def test_straight_fold_single_column(self):
        text = ascii_conformation("111", "22")
        body = [line for line in text.splitlines() if line and "energy" not in line]
        assert all(len(line.rstrip()) == 1 for line in body)
        assert "energy 0" in text

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError, match="collision at bead 4"):
            ascii_conformation("10101", "0000")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_conformation("11", "22")


class TestSvg:
    def test_document_structure(self):
        svg = svg_conformation("1001001001", "211011011")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 10
        assert svg.count('stroke-dasharray') == 4  # the four contacts
        assert "energy -4" in svg

    def test_bead_fill_split(self):
        svg = svg_conformation("1001001001", "211011011")
        assert svg.count('fill="#222"') == 4
        assert svg.count('fill="#fff"') == 6

    def test_deterministic(self):
        a = svg_conformation("1001001001", "200100100")
        b = svg_conformation("1001001001", "200100100")
        assert a == b

    def test_parses_as_xml(self):
        root = ET.fromstring(svg_conformation("10100110100101100101", "0020011020010110020"))
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert len(root.findall("{http://www.w3.org/2000/svg}circle")) == 20
